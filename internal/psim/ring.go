package psim

import (
	"sync/atomic"

	"repro/internal/sim"
)

// ringCap bounds each inter-domain handoff queue. Power of two so the
// index mask is a single AND; 2048 crossings (~112 KiB) absorbs a full
// switch-egress burst without making an unresponsive consumer invisible
// — a producer that fills the ring falls into the push-block protocol
// (publish partial horizon, drain own inputs, yield) instead of
// allocating unboundedly.
const ringCap = 2048

// ring is a bounded single-producer/single-consumer queue of crossings
// between one ordered pair of domains. The producer is always the
// source domain's goroutine and the consumer the destination domain's
// (psim never migrates domains between goroutines mid-run), which is
// what lets push and pop be a pair of atomic counters with no lock.
// Go's atomic loads/stores are sequentially consistent, so a consumer
// that observes tail also observes the buffer write that preceded it.
type ring struct {
	head atomic.Uint64 // next slot to pop (consumer-owned)
	tail atomic.Uint64 // next slot to fill (producer-owned)
	buf  [ringCap]sim.Crossing
}

// tryPush appends c, failing (false) when the ring is full.
func (r *ring) tryPush(c sim.Crossing) bool {
	t := r.tail.Load()
	if t-r.head.Load() == ringCap {
		return false
	}
	r.buf[t&(ringCap-1)] = c
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest crossing, zeroing its whole slot so the ring
// never pins a handed-off handler or argument (a packet) for a full
// lap.
func (r *ring) pop() (sim.Crossing, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return sim.Crossing{}, false
	}
	c := r.buf[h&(ringCap-1)]
	r.buf[h&(ringCap-1)] = sim.Crossing{}
	r.head.Store(h + 1)
	return c, true
}

// depth returns the current occupancy (racy snapshot, telemetry only).
func (r *ring) depth() uint64 { return r.tail.Load() - r.head.Load() }

// empty reports whether the ring holds no crossings. Only meaningful as
// a stable answer when both endpoint domains are quiescent (the
// all-parked stall breaker's precondition).
func (r *ring) empty() bool { return r.head.Load() == r.tail.Load() }
