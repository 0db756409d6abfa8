// Package sim provides a deterministic discrete-event simulation engine
// with nanosecond-resolution virtual time.
//
// The engine is the substrate every other component in this repository is
// built on: NICs, switches, clocks, traffic generators and the Choir
// middlebox all advance by scheduling callbacks on a shared Engine.
// Events fire in (time, lane, lane-seq) order: same-instant events are
// ordered by the lane of the component that scheduled them, then by
// that component's own schedule order (see Actor). The key is unique
// per event, so every simulation is bit-for-bit reproducible for a
// fixed seed.
package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// ErrStepBudget is the sentinel error callers wrap when a simulation
// halted because its step budget ran out (see Engine.SetStepBudget).
var ErrStepBudget = errors.New("sim: step budget exhausted")

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. Simulated time is unrelated to host wall-clock time.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations, mirroring package time for readability.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders the time as a nanosecond count with unit.
func (t Time) String() string { return fmt.Sprintf("%dns", int64(t)) }

// Seconds converts the time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Event is a handle on a callback queued by Schedule. Cancelled events
// are skipped when popped — cancellation itself is O(1) — and when
// cancellations pile up (mass-cancel workloads) the engine compacts them
// out of the queue so they cannot hold memory for the rest of a run.
type Event struct {
	at        Time
	eng       *Engine // nil once fired
	cancelled bool
}

// At returns the time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing. Safe to call multiple times and
// after the event has fired (in which case it is a no-op).
func (e *Event) Cancel() {
	if e.cancelled {
		return
	}
	e.cancelled = true
	if e.eng != nil {
		e.eng.noteCancelled()
	}
}

// Cancelled reports whether Cancel has been called.
func (e *Event) Cancelled() bool { return e.cancelled }

// Handler is a preallocated event target. Per-packet paths queue a
// (handler, argument) pair — Actor.PostTo, Actor.SendTo — instead of a
// freshly allocated closure per event; Fire receives the event's
// instant and the argument it was queued with.
type Handler interface {
	Fire(at Time, arg any)
}

// funcHandler adapts a plain callback to Handler. A func value is
// pointer-shaped, so the conversion does not allocate.
type funcHandler func()

func (f funcHandler) Fire(Time, any) { f() }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated components run inside event callbacks.
// (Distinct engines are fully independent, which is what lets the
// parallel trial scheduler run one engine per worker.)
type Engine struct {
	now      Time
	seq      uint64
	q        queue
	seed     int64
	executed uint64

	// budget, when non-zero, bounds how many events the engine will
	// fire: the per-trial sim-step budget the campaign runner uses as a
	// deterministic timeout. Once executed reaches the budget, Step and
	// RunUntil stop firing events (see SetStepBudget).
	budget uint64

	// cancelled counts cancelled events still in the queue; when they
	// dominate, the queue is compacted (see maybeCompact).
	cancelled int

	// lanes allocates actor lanes (see NewActor). Engines hosting parts
	// of one partitioned topology share a counter so lanes are globally
	// unique across the partition; a standalone engine owns its own.
	lanes *LaneCounter
	// router, when set, carries cross-engine actor sends (see Router).
	router Router
}

// compactMinHeap is the queue size below which compaction is never
// worth the re-heapify.
const compactMinHeap = 64

// NewEngine returns an engine whose random streams derive from seed.
// The same seed always produces the same simulation.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, lanes: &LaneCounter{}}
}

// NewEngineWithLanes returns an engine drawing actor lanes from a
// shared counter. All sub-engines of one partitioned topology are
// created this way with the same counter (and the same seed), which is
// what makes component lane numbers — and therefore the total event
// order — independent of how the topology is partitioned.
func NewEngineWithLanes(seed int64, lanes *LaneCounter) *Engine {
	if lanes == nil {
		lanes = &LaneCounter{}
	}
	return &Engine{seed: seed, lanes: lanes}
}

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events that have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of live (non-cancelled) events still
// queued. Cancelled tombstones awaiting pop or compaction are excluded,
// so diagnostics built on Pending (campaign degraded rows, psim horizon
// heuristics) see the work that will actually fire.
func (e *Engine) Pending() int { return len(e.q.keys) - e.cancelled }

// PendingRaw returns the raw queue length, cancelled tombstones
// included — the quantity queue compaction bounds.
func (e *Engine) PendingRaw() int { return len(e.q.keys) }

// Schedule queues fn to run at absolute time at and returns a handle
// that can be retained and cancelled. Scheduling in the past (before
// Now) panics: it would violate causality and always indicates a
// component bug.
//
// Each call allocates its handle — the engine never recycles one, so a
// handle stays valid (and Cancel stays a no-op after firing) for the
// life of the simulation. Hot paths that discard the handle should use
// Post/PostAfter, which allocate nothing per event.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := e.scheduleLane(at, 0, e.seq, fn)
	e.seq++
	return ev
}

// After queues fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Post queues fn to run at absolute time at, without returning a
// handle, so steady-state fire-and-forget scheduling does not allocate
// per event. Firing order is identical to Schedule: same
// (time, lane, lane-seq) key — lane 0 and the engine's own sequence
// counter — and the same panic on scheduling into the past.
func (e *Engine) Post(at Time, fn func()) {
	e.postLane(at, 0, e.seq, funcHandler(fn), nil)
	e.seq++
}

// PostAfter queues fn to run d nanoseconds from now, handle-free (see
// Post).
func (e *Engine) PostAfter(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Post(e.now+d, fn)
}

// SetStepBudget bounds the total number of events this engine will ever
// fire (0 = unlimited, the default). A simulation that reaches the
// budget stops making progress: Step returns false and RunUntil drains
// no more events, so a runaway or livelocked trial terminates quickly
// and deterministically — the same budget always halts at the same
// event, which is what lets a trial-campaign timeout be replayable.
// Check BudgetExhausted to distinguish a budget halt from a drained
// queue.
func (e *Engine) SetStepBudget(n uint64) { e.budget = n }

// BudgetExhausted reports whether a step budget was set and has been
// used up.
func (e *Engine) BudgetExhausted() bool {
	return e.budget > 0 && e.executed >= e.budget
}

// Step fires the next pending event. It returns false when no runnable
// events remain or the step budget is exhausted.
func (e *Engine) Step() bool {
	if e.BudgetExhausted() {
		return false
	}
	for len(e.q.keys) > 0 {
		k := e.q.pop()
		s := e.q.release(k.slot)
		if s.ev != nil {
			if s.ev.cancelled {
				e.cancelled--
				continue
			}
			// A late Cancel on a fired handle must be a true no-op:
			// the event is out of the queue, so counting a tombstone
			// for it would corrupt Pending() and trigger phantom
			// compactions.
			s.ev.eng = nil
		}
		e.now = k.at
		e.executed++
		s.h.Fire(k.at, s.arg)
		return true
	}
	return false
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to deadline (even if the queue drained earlier).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.q.keys) > 0 && !e.BudgetExhausted() {
		next := e.q.keys[0]
		if ev := e.q.slots[next.slot].ev; ev != nil && ev.cancelled {
			e.q.pop()
			e.q.release(next.slot)
			e.cancelled--
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// noteCancelled records one more cancelled event in the queue and
// compacts when cancellations dominate. Without this, a mass cancel
// would leave the queue holding every dead event — and its callback —
// until simulated time happened to pop it.
func (e *Engine) noteCancelled() {
	e.cancelled++
	e.maybeCompact()
}

// maybeCompact rebuilds the queue without cancelled events once they
// outnumber the live ones (and the queue is big enough to care). The
// rebuild is O(n) and preserves the (time, lane, lane-seq) firing
// order — that key is a total order over unique keys, so pop order,
// and therefore the simulation, is bit-identical with or without
// compaction.
func (e *Engine) maybeCompact() {
	if len(e.q.keys) < compactMinHeap || e.cancelled*2 <= len(e.q.keys) {
		return
	}
	e.q.filter(func(s *slot) bool { return s.ev == nil || !s.ev.cancelled })
	e.cancelled = 0
}

// RunFor runs the simulation for d nanoseconds of virtual time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + d) }

// Rand returns a deterministic random stream derived from the engine seed
// and a label. Components should each use their own label so that adding a
// new component does not perturb existing streams.
func (e *Engine) Rand(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", e.seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
