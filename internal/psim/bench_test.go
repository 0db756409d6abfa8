package psim

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkHandoff measures the cross-domain handoff path — actor Send
// → SPSC ring push → consumer drain → Engine.Inject → queue insert —
// as ns and allocations per crossing. The pre-bound callbacks and the
// engines' reused queue slots mean steady state should allocate
// nothing per handoff; verify.sh -bench holds a budget on this.
func BenchmarkHandoff(b *testing.B) {
	const la = 100
	p := New(1, 2, nil)
	e0, e1 := p.Domain(0), p.Domain(1)
	p.Link(e0, e1, la)
	p.Link(e1, e0, la)
	a0, a1 := e0.NewActor(), e1.NewActor()

	remaining := b.N
	var ping, pong func()
	ping = func() { // runs on e0
		if remaining <= 0 {
			return
		}
		remaining--
		a0.Send(e1, a0.Now()+la, pong)
	}
	pong = func() { // runs on e1
		if remaining <= 0 {
			return
		}
		remaining--
		a1.Send(e0, a1.Now()+la, ping)
	}
	a0.Post(0, ping)

	b.ReportAllocs()
	b.ResetTimer()
	p.RunUntil(sim.Time(int64(b.N+2) * la))
	b.StopTimer()
	if remaining > 0 {
		b.Fatalf("%d handoffs never ran", remaining)
	}
}
