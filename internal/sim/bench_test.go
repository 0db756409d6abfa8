package sim

import "testing"

// engineBenchInFlight is the steady queue depth of BenchmarkEngine —
// the order of a Table 2 trial's queue (per-packet deliveries of a few
// bursts in flight plus the components' self-scheduling events).
const engineBenchInFlight = 256

// benchToken is one self-rescheduling event chain of BenchmarkEngine.
type benchToken struct {
	act   *Actor
	state uint32
	left  *int
	fn    func()
}

// gap draws the token's next delay from a private LCG: cheap,
// deterministic, and ties at the same instant happen often enough to
// exercise the lane/sequence tie-break.
func (t *benchToken) gap() Duration {
	t.state = t.state*1664525 + 1013904223
	return Duration(t.state>>22) + 1
}

// Fire implements Handler for the PostTo workload.
func (t *benchToken) Fire(_ Time, arg any) {
	if *t.left <= 0 {
		return
	}
	*t.left--
	t.act.PostTo(t.act.Now()+t.gap(), t, arg)
}

// BenchmarkEngine measures the sequential engine's per-event cost —
// push, pop and dispatch — at a steady queue depth, as events/s and
// allocs/op (one op = one event). Post reschedules a callback bound
// once per chain; PostTo reschedules a preallocated handler with a
// pointer argument, the per-packet paths' form. Neither may allocate
// per event.
func BenchmarkEngine(b *testing.B) {
	run := func(b *testing.B, handler bool) {
		e := NewEngine(1)
		left := b.N
		for i := 0; i < engineBenchInFlight; i++ {
			t := &benchToken{act: e.NewActor(), state: uint32(i), left: &left}
			if handler {
				t.act.PostTo(t.gap(), t, t)
				continue
			}
			t.fn = func() {
				if left <= 0 {
					return
				}
				left--
				t.act.Post(t.act.Now()+t.gap(), t.fn)
			}
			t.act.Post(t.gap(), t.fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
		b.StopTimer()
		if left > 0 {
			b.Fatalf("%d events never ran", left)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	}
	b.Run("Post", func(b *testing.B) { run(b, false) })
	b.Run("PostTo", func(b *testing.B) { run(b, true) })
}
