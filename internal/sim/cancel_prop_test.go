package sim

import (
	"math/rand"
	"testing"
)

// TestMassCancelPostReuseProperty is the slot-reuse safety property: any
// interleaving of handle scheduling, mass cancellation (the workload
// that drives queue compaction) and Post's reuse of freed slots must never
// resurrect a cancelled event, double-fire a recycled one, or lose a
// live one — and the Pending()/PendingRaw() split must stay consistent
// with what actually fires.
func TestMassCancelPostReuseProperty(t *testing.T) {
	eng := NewEngine(99)
	rng := rand.New(rand.NewSource(7))

	const waves, perWave = 60, 300
	fired := make(map[int]int)
	expect := make(map[int]bool) // id → must fire exactly once
	type handle struct {
		ev *Event
		id int
	}
	var live []handle
	id := 0

	for wave := 0; wave < waves; wave++ {
		base := eng.Now()
		for j := 0; j < perWave; j++ {
			at := base + Duration(rng.Intn(1000))
			myid := id
			id++
			expect[myid] = true
			if rng.Intn(2) == 0 {
				ev := eng.Schedule(at, func() { fired[myid]++ })
				live = append(live, handle{ev, myid})
			} else {
				// Handle-free: draws from (and later refills) the free
				// list the cancelled tombstones are recycled into.
				eng.Post(at, func() { fired[myid]++ })
			}
		}
		// Mass-cancel a random third of the outstanding handles — enough
		// to push the heap over the compaction threshold repeatedly.
		for _, h := range live {
			if rng.Intn(3) != 0 {
				continue
			}
			if fired[h.id] == 0 && !h.ev.Cancelled() {
				h.ev.Cancel()
				expect[h.id] = false
			} else {
				// Cancelling an already-fired handle must be a no-op.
				h.ev.Cancel()
			}
		}
		if got := eng.Pending(); got < 0 || got > eng.PendingRaw() {
			t.Fatalf("wave %d: Pending %d out of range [0, %d]", wave, got, eng.PendingRaw())
		}
		// Partially drain so later waves reuse slots that carried earlier
		// lanes/closures, interleaved with live tombstones.
		eng.RunUntil(base + Duration(rng.Intn(1400)))
		if rng.Intn(2) == 0 {
			live = live[:0]
		}
	}
	eng.Run()

	for i := 0; i < id; i++ {
		want := 0
		if expect[i] {
			want = 1
		}
		if fired[i] != want {
			t.Fatalf("event %d fired %d times, want %d (resurrected or double-recycled)", i, fired[i], want)
		}
	}
	if eng.Pending() != 0 || eng.PendingRaw() != 0 {
		t.Fatalf("drained engine reports %d pending (%d raw)", eng.Pending(), eng.PendingRaw())
	}
}

// TestCancelAfterFireKeepsPendingExact pins the regression the property
// test would catch statistically: a Cancel after the event fired must
// not count a tombstone against the heap.
func TestCancelAfterFireKeepsPendingExact(t *testing.T) {
	eng := NewEngine(1)
	ev := eng.Schedule(5, func() {})
	eng.Schedule(20, func() {})
	eng.RunUntil(10)
	ev.Cancel() // already fired: must be a true no-op
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after cancelling a fired event, want 1", got)
	}
	if got := eng.PendingRaw(); got != 1 {
		t.Fatalf("PendingRaw() = %d, want 1", got)
	}
}
