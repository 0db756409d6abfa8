package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refItem is one event in the reference model of the engine's queue.
type refItem struct {
	at        Time
	lane      uint32
	seq       uint64
	id        int
	cancelled bool
	done      bool // popped: fired, or dropped as a tombstone
}

// refHeap is the reference queue: container/heap over (at, lane, seq).
type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].lane != h[j].lane {
		return h[i].lane < h[j].lane
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any     { old := *h; it := old[len(old)-1]; *h = old[:len(old)-1]; return it }
func (h refHeap) tombstones() int {
	n := 0
	for _, it := range h {
		if it.cancelled {
			n++
		}
	}
	return n
}

// refFire is the Handler of PostTo/SendTo events in the differential
// test; the argument is the event's id.
type refFire struct{ fire func(id int) }

func (r refFire) Fire(_ Time, arg any) { r.fire(arg.(int)) }

// TestQueueDifferential drives the engine and a container/heap model of
// its documented semantics in lockstep through seeded random
// interleavings of Schedule, Post, actor Post/PostTo/Schedule/SendTo,
// reserved-sequence ScheduleSeq, Inject, Cancel (heavy enough to
// trigger compaction) and RunUntil. Every fired event must be the
// model's next (at, lane, seq) key, and Pending/PendingRaw must match
// the model after every operation and inside every callback.
func TestQueueDifferential(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 20; seed++ {
		compactions += runQueueDifferential(t, seed)
	}
	if compactions == 0 {
		t.Fatal("no interleaving triggered a compaction")
	}
}

// runQueueDifferential runs one seeded interleaving and returns how
// many compactions it triggered.
func runQueueDifferential(t *testing.T, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine(seed)
	var ref refHeap
	var items []*refItem
	var handles []*Event // handles[id] for cancellable events, else nil
	engSeq := uint64(0)
	actors := []*Actor{eng.NewActor(), eng.NewActor(), eng.NewActor()}
	actSeq := make([]uint64, len(actors))
	const injectLane = 1 << 20
	injectSeq := uint64(0)
	fired, compactions := 0, 0

	check := func(where string) {
		t.Helper()
		if got, want := eng.PendingRaw(), ref.Len(); got != want {
			t.Fatalf("seed %d %s: PendingRaw %d, model %d", seed, where, got, want)
		}
		if got, want := eng.Pending(), ref.Len()-ref.tombstones(); got != want {
			t.Fatalf("seed %d %s: Pending %d, model %d", seed, where, got, want)
		}
	}
	// dropTombstones pops cancelled heads, as Step and RunUntil do.
	dropTombstones := func() {
		for ref.Len() > 0 && ref[0].cancelled {
			heap.Pop(&ref).(*refItem).done = true
		}
	}

	var add func(at Time, kind int)
	var fire func(id int)
	fire = func(id int) {
		dropTombstones()
		if ref.Len() == 0 {
			t.Fatalf("seed %d: engine fired %d, model queue empty", seed, id)
		}
		want := heap.Pop(&ref).(*refItem)
		want.done = true
		got := items[id]
		if want != got {
			t.Fatalf("seed %d: fired (at=%d lane=%d seq=%d), model pops (at=%d lane=%d seq=%d)",
				seed, got.at, got.lane, got.seq, want.at, want.lane, want.seq)
		}
		if eng.Now() != got.at {
			t.Fatalf("seed %d: event %d fired at %v, keyed %v", seed, id, eng.Now(), got.at)
		}
		fired++
		check("in callback")
		// Nested scheduling from inside a callback, including at now.
		if rng.Intn(4) == 0 {
			add(eng.Now()+Time(rng.Intn(3)), rng.Intn(8))
		}
	}
	newItem := func(at Time, lane uint32, seq uint64, ev *Event) int {
		id := len(items)
		it := &refItem{at: at, lane: lane, seq: seq, id: id}
		items = append(items, it)
		handles = append(handles, ev)
		heap.Push(&ref, it)
		return id
	}
	h := refFire{fire: fire}
	// add queues one event at at; kind picks the API (0, 4 and 5 return
	// cancellable handles).
	add = func(at Time, kind int) {
		switch kind {
		case 0: // Engine.Schedule
			id := len(items)
			ev := eng.Schedule(at, func() { fire(id) })
			newItem(at, 0, engSeq, ev)
			engSeq++
		case 1: // Engine.Post
			id := len(items)
			eng.Post(at, func() { fire(id) })
			newItem(at, 0, engSeq, nil)
			engSeq++
		case 2, 3: // Actor.Post / Actor.PostTo / Actor.SendTo (local)
			a := rng.Intn(len(actors))
			actSeq[a]++
			id := newItem(at, actors[a].lane, actSeq[a], nil)
			switch kind {
			case 2:
				actors[a].Post(at, func() { fire(id) })
			default:
				if rng.Intn(2) == 0 {
					actors[a].PostTo(at, h, id)
				} else {
					actors[a].SendTo(eng, at, h, id)
				}
			}
		case 4: // Actor.Schedule
			a := rng.Intn(len(actors))
			actSeq[a]++
			id := len(items)
			ev := actors[a].Schedule(at, func() { fire(id) })
			newItem(at, actors[a].lane, actSeq[a], ev)
		case 5: // Reserve + ScheduleSeq, armed out of order
			a := rng.Intn(len(actors))
			n := 1 + rng.Intn(3)
			base := actors[a].Reserve(n)
			if base != actSeq[a]+1 {
				t.Fatalf("seed %d: Reserve returned %d, want %d", seed, base, actSeq[a]+1)
			}
			actSeq[a] += uint64(n)
			for _, j := range rng.Perm(n) {
				at := at + Time(rng.Intn(5))
				id := len(items)
				ev := actors[a].ScheduleSeq(at, base+uint64(j), func() { fire(id) })
				newItem(at, actors[a].lane, base+uint64(j), ev)
			}
		default: // Inject, as a partition router would
			injectSeq++
			id := newItem(at, injectLane, injectSeq, nil)
			eng.Inject(Crossing{At: at, Lane: injectLane, Seq: injectSeq, H: h, Arg: id})
		}
	}

	cancel := func(id int) {
		ev := handles[id]
		if ev == nil {
			return
		}
		it := items[id]
		ev.Cancel()
		if it.done || it.cancelled {
			return // fired, dropped or already cancelled: a no-op
		}
		it.cancelled = true
		// The engine's compaction rule, mirrored.
		if ref.Len() >= compactMinHeap && ref.tombstones()*2 > ref.Len() {
			live := ref[:0]
			for _, x := range ref {
				if x.cancelled {
					x.done = true
				} else {
					live = append(live, x)
				}
			}
			ref = live
			heap.Init(&ref)
			compactions++
		}
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(50); {
		case op < 25:
			add(eng.Now()+Time(rng.Intn(50)), rng.Intn(8))
		case op < 40: // cancel a random event, fired or not, maybe twice
			if len(items) > 0 {
				cancel(rng.Intn(len(items)))
			}
		case op < 49:
			deadline := eng.Now() + Time(rng.Intn(40))
			eng.RunUntil(deadline)
			dropTombstones()
			if ref.Len() > 0 && ref[0].at <= deadline {
				t.Fatalf("seed %d: RunUntil(%v) left due event at %v", seed, deadline, ref[0].at)
			}
		default: // a mass cancel: arm a wave, then cancel most of it
			first := len(items)
			for j := 0; j < 2*compactMinHeap; j++ {
				add(eng.Now()+Time(rng.Intn(500)), []int{0, 4, 5}[rng.Intn(3)])
			}
			for id := first; id < len(items); id++ {
				if rng.Intn(5) != 0 {
					cancel(id)
					check("in mass cancel")
				}
			}
		}
		check("after op")
	}
	eng.Run()
	dropTombstones()
	check("after Run")
	if ref.Len() != 0 {
		t.Fatalf("seed %d: model still holds %d events after Run", seed, ref.Len())
	}
	if eng.Executed() != uint64(fired) {
		t.Fatalf("seed %d: Executed %d, fired %d", seed, eng.Executed(), fired)
	}
	return compactions
}
