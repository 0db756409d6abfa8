package sim

import (
	"fmt"
	"math/rand"
)

// This file is the engine's partitioning surface: lanes, actors and the
// router hook that let one topology run either on a single Engine or
// spread over several conservatively synchronized Engines (package
// psim) while producing bit-identical event orders.
//
// The core idea: the heap's tie-break for same-instant events must not
// depend on a global schedule counter (which a partitioned run cannot
// reproduce), so every scheduling component owns a *lane* — a small
// integer allocated in topology construction order — and a private
// per-lane sequence counter. Events order by (time, lane, laneSeq).
// Construction order is the same however the topology is partitioned,
// and a component's posts hit its own lane counter in the same order in
// any partitioning, so the total event order is partition-independent.

// LaneCounter allocates component lanes. Engines that host parts of the
// same partitioned topology share one counter so lane numbers are
// global across the partition (and equal to the single-engine run's).
type LaneCounter struct{ n uint32 }

// Actor is a component's scheduling handle: posts carry the actor's
// lane and per-lane sequence, making same-instant ordering a property
// of the component rather than of a global counter. Actors are created
// with Engine.NewActor during (single-threaded) topology construction
// and used only from their engine's event loop, like the Engine itself.
type Actor struct {
	eng  *Engine
	lane uint32
	seq  uint64
}

// Engine returns the engine this actor schedules on.
func (a *Actor) Engine() *Engine { return a.eng }

// Now returns the actor's engine time.
func (a *Actor) Now() Time { return a.eng.Now() }

// Post queues fn at absolute time at on the actor's lane (no handle —
// see Engine.Post).
func (a *Actor) Post(at Time, fn func()) {
	a.PostTo(at, funcHandler(fn), nil)
}

// PostTo queues h.Fire(at, arg) at absolute time at on the actor's
// lane: Post without a per-event closure, for per-packet paths whose
// target is preallocated and whose state travels in arg.
func (a *Actor) PostTo(at Time, h Handler, arg any) {
	a.seq++
	a.eng.postLane(at, a.lane, a.seq, h, arg)
}

// PostAfter queues fn d nanoseconds from now on the actor's lane;
// negative durations clamp to zero (fire now), matching
// Engine.PostAfter.
func (a *Actor) PostAfter(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	a.Post(a.eng.now+d, fn)
}

// Schedule queues fn at absolute time at on the actor's lane and
// returns a cancellable handle (freshly allocated, never recycled —
// see Engine.Schedule).
func (a *Actor) Schedule(at Time, fn func()) *Event {
	a.seq++
	return a.eng.scheduleLane(at, a.lane, a.seq, fn)
}

// Reserve claims a block of n consecutive lane sequence numbers and
// returns the first. The block is the key space of events the actor
// will schedule later with ScheduleSeq but must order as though they
// had been scheduled now, one after another: a lazily armed chain
// whose keys equal those of the eager schedule it replaces.
func (a *Actor) Reserve(n int) uint64 {
	base := a.seq + 1
	a.seq += uint64(n)
	return base
}

// ScheduleSeq is Schedule with a lane sequence number taken from a
// block claimed by Reserve. Each reserved number must be used at most
// once, or two events would share a key.
func (a *Actor) ScheduleSeq(at Time, seq uint64, fn func()) *Event {
	return a.eng.scheduleLane(at, a.lane, seq, fn)
}

// After queues fn d nanoseconds from now on the actor's lane.
func (a *Actor) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return a.Schedule(a.eng.now+d, fn)
}

// Send queues fn at absolute time at on the engine that owns dst. When
// dst is nil or the actor's own engine this is a local Post; otherwise
// the event crosses to the destination engine through the partition's
// Router, carrying the actor's (lane, seq) key so the receiver merges
// it into exactly the slot the single-engine run would have used.
func (a *Actor) Send(dst *Engine, at Time, fn func()) {
	a.SendTo(dst, at, funcHandler(fn), nil)
}

// SendTo is Send without a per-event closure: h.Fire(at, arg) runs on
// the engine that owns dst (see PostTo).
func (a *Actor) SendTo(dst *Engine, at Time, h Handler, arg any) {
	a.seq++
	if dst == nil || dst == a.eng {
		a.eng.postLane(at, a.lane, a.seq, h, arg)
		return
	}
	r := a.eng.router
	if r == nil {
		panic(fmt.Sprintf("sim: actor lane %d: cross-engine send without a router", a.lane))
	}
	r.Route(a.eng, dst, Crossing{At: at, Lane: a.lane, Seq: a.seq, H: h, Arg: arg})
}

// Rand derives a deterministic random stream from the engine seed and a
// label (see Engine.Rand — the stream is a pure function of seed and
// label, so it is identical on every engine of a partition).
func (a *Actor) Rand(label string) *rand.Rand { return a.eng.Rand(label) }

// Crossing is one event crossing engines in a partitioned run: the
// (time, lane, sequence) ordering key plus the handler and its
// argument, exactly what the destination queue needs to merge it
// deterministically.
type Crossing struct {
	At   Time
	Lane uint32
	Seq  uint64
	H    Handler
	Arg  any
}

// Router carries cross-engine sends in a partitioned run. Package psim
// provides the implementation; a single-engine run has none (and never
// needs one, because every Send is local).
type Router interface {
	// Link declares that src may send events to dst with the given
	// minimum latency (lookahead): every crossing issued while src
	// executes an event at time t satisfies At >= t + lookahead.
	// Declaring an edge twice keeps the smaller lookahead.
	Link(src, dst *Engine, lookahead Duration)
	// Route delivers one crossing from src to dst.
	Route(src, dst *Engine, c Crossing)
}

// SetRouter installs the partition router (psim calls this on every
// domain engine it creates).
func (e *Engine) SetRouter(r Router) { e.router = r }

// Router returns the installed partition router (nil on a standalone
// engine).
func (e *Engine) Router() Router { return e.router }

// NewActor allocates the next lane (construction-ordered) and returns
// an actor scheduling on this engine. Lane numbers come from the
// engine's lane counter, which partitioned engines share — so a
// component gets the same lane wherever it is placed.
func (e *Engine) NewActor() *Actor {
	e.lanes.n++
	return &Actor{eng: e, lane: e.lanes.n}
}

// Hosted is implemented by simulated components that can say which
// engine they run on. Wiring helpers (nic.Queue.Connect,
// netsw.Port.Attach, control.Bus.Send) probe their far end for it to
// route deliveries to the right engine of a partitioned run; endpoints
// that don't implement it are treated as local to the sender.
type Hosted interface {
	SimEngine() *Engine
}

// EngineOf resolves the engine hosting v, falling back to fallback for
// endpoints that don't implement Hosted (test sinks, local shims).
func EngineOf(v any, fallback *Engine) *Engine {
	if h, ok := v.(Hosted); ok {
		if eng := h.SimEngine(); eng != nil {
			return eng
		}
	}
	return fallback
}

// Inject merges a crossing delivered by the partition router into this
// engine's queue, preserving the sender-side (time, lane, seq) key. It
// must only be called from the goroutine currently driving this engine
// (psim's domain loop), never concurrently with Step/RunUntil on
// another goroutine. Injecting into the executed past panics: it means
// the partition's synchronization let a message arrive late.
func (e *Engine) Inject(c Crossing) {
	if c.At < e.now {
		panic(fmt.Sprintf("sim: inject at %v before now %v (lookahead violation)", c.At, e.now))
	}
	e.q.push(c.At, c.Lane, c.Seq, slot{h: c.H, arg: c.Arg})
}

// postLane queues a handle-free event with an explicit (lane, seq) key.
func (e *Engine) postLane(at Time, lane uint32, seq uint64, h Handler, arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: post at %v before now %v", at, e.now))
	}
	e.q.push(at, lane, seq, slot{h: h, arg: arg})
}

// scheduleLane queues a handle event with an explicit (lane, seq) key.
func (e *Engine) scheduleLane(at Time, lane uint32, seq uint64, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := &Event{at: at, eng: e}
	e.q.push(at, lane, seq, slot{h: funcHandler(fn), ev: ev})
	return ev
}

// NextEventAt returns the earliest queued timestamp (cancelled
// tombstones included — a conservative lower bound, which is what the
// partition's horizon promises need) and whether any event is queued.
func (e *Engine) NextEventAt() (Time, bool) {
	if len(e.q.keys) == 0 {
		return 0, false
	}
	return e.q.keys[0].at, true
}

// DistFloor returns a conservative lower bound on d's samples, for
// static lookahead computation: 0 when the distribution is unbounded
// below or unknown. Callers clamp negative samples to 0 on the event
// path, so the floor is never negative.
func DistFloor(d Dist) Duration {
	var lo Duration
	switch v := d.(type) {
	case nil:
		lo = 0
	case Constant:
		lo = v.V
	case Uniform:
		lo = v.Lo
	case Clamp:
		lo = v.Lo
	case Sum:
		lo = DistFloor(v.A) + DistFloor(v.B)
	default:
		lo = 0
	}
	if lo < 0 {
		lo = 0
	}
	return lo
}
