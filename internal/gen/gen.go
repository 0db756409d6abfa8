// Package gen provides traffic generators for the simulated testbed: a
// Pktgen-DPDK-style constant-bit-rate stream (the paper's experimental
// workload), a Poisson arrival variant, and a simple IMIX mix for
// stress-testing the replay path with non-uniform frame sizes.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// emitObs bundles the per-stream observability hooks shared by every
// generator: the gen_emitted_total counter and the `gen` packet-lifecycle
// instant. A nil *emitObs is inert, so generators call record
// unconditionally. Purely observational: it never touches the engine's
// RNG or schedule.
type emitObs struct {
	eng   *sim.Engine
	ctr   *obs.Counter
	tr    *obs.Tracer
	track string
}

// newEmitObs builds the emit hooks for one stream, or nil when o is nil.
func newEmitObs(eng *sim.Engine, o *obs.Obs, stream uint16) *emitObs {
	if o == nil {
		return nil
	}
	return &emitObs{
		eng: eng,
		ctr: o.Reg.Counter("gen_emitted_total", "packets handed to the generator NIC",
			obs.L("stream", fmt.Sprintf("%d", stream))),
		tr:    o.Tracer,
		track: fmt.Sprintf("gen/%d", stream),
	}
}

// record notes a burst of emitted packets at the engine's current time.
func (e *emitObs) record(pkts []*packet.Packet) {
	if e == nil {
		return
	}
	now := e.eng.Now()
	for _, p := range pkts {
		e.tr.Instant(p.Tag, obs.StageGen, e.track, now)
	}
	e.ctr.Add(int64(len(pkts)))
}

// CBRConfig describes a constant-bit-rate stream of identical frames —
// "the generator created a 40 Gbps stream of 1,400-byte packets" (§6).
type CBRConfig struct {
	// RateBps is the target offered load in bits per second (on-wire,
	// including preamble and inter-frame gap).
	RateBps int64
	// FrameLen is the frame size in bytes.
	FrameLen int
	// Count is the number of packets to emit.
	Count int
	// StartAt is the simulated emission start time.
	StartAt sim.Time
	// Stream tags the packets' stream field; the replayer field of the
	// tag is stamped later by the middlebox that emits the replay.
	Stream uint16
	// Flow is the 5-tuple stamped into synthesized headers.
	Flow packet.FiveTuple
	// Burst emits packets in back-to-back groups of this size while
	// preserving the average rate (1 = perfectly paced).
	Burst int
	// Obs, when non-nil, counts emitted packets per stream and opens
	// the packet-lifecycle `gen` instant for sampled packets.
	Obs *obs.Obs
}

// Generator emits a packet schedule into a NIC queue.
type Generator struct {
	eng     *sim.Engine
	act     *sim.Actor
	q       *nic.Queue
	emitted int
	// Emission is self-scheduling with one event armed at a time: emit
	// (one body per generator kind) starts at packet next, and arms the
	// event for the packet after it. The generator itself is the
	// event's handler, so an emission costs no closure.
	next int
	emit func(i int)
	slab packet.Slab
}

// Emitted returns how many packets have been handed to the NIC so far.
func (g *Generator) Emitted() int { return g.emitted }

// Fire implements sim.Handler: the armed emission.
func (g *Generator) Fire(sim.Time, any) { g.emit(g.next) }

// arm queues the emission starting at packet i for instant at.
func (g *Generator) arm(at sim.Time, i int) {
	g.next = i
	g.act.PostTo(at, g, nil)
}

// armAfter queues the emission starting at packet i d from now.
func (g *Generator) armAfter(d sim.Duration, i int) {
	if d < 0 {
		d = 0
	}
	g.arm(g.eng.Now()+d, i)
}

// StartCBR schedules a CBR stream into q. Emission times are computed
// exactly (packet i leaves at StartAt + i·serialization(rate)), the
// fidelity a DPDK generator achieves with hardware rate limiting.
func StartCBR(eng *sim.Engine, q *nic.Queue, cfg CBRConfig) *Generator {
	if cfg.RateBps <= 0 {
		panic("gen: rate must be positive")
	}
	if cfg.FrameLen < packet.MinDataFrameLen {
		panic(fmt.Sprintf("gen: frame length %d below minimum %d", cfg.FrameLen, packet.MinDataFrameLen))
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = 1
	}
	if burst > nic.BurstSize {
		burst = nic.BurstSize
	}
	g := &Generator{eng: eng, act: eng.NewActor(), q: q}
	eo := newEmitObs(eng, cfg.Obs, cfg.Stream)
	interval := float64(packet.WireBytes(cfg.FrameLen)*8) * 1e9 / float64(cfg.RateBps)
	// Self-scheduling emission keeps the event heap small at
	// million-packet scale; times are computed from the packet index so
	// pacing never accumulates drift.
	g.emit = func(i int) {
		n := burst
		if i+n > cfg.Count {
			n = cfg.Count - i
		}
		pkts := g.slab.Take(n)
		for j, p := range pkts {
			*p = packet.Packet{
				Tag:      packet.Tag{Stream: cfg.Stream, Seq: uint64(i + j)},
				Kind:     packet.KindData,
				FrameLen: cfg.FrameLen,
				Flow:     cfg.Flow,
			}
		}
		eo.record(pkts)
		g.q.SendBurst(pkts)
		g.emitted += n
		if next := i + n; next < cfg.Count {
			g.arm(cfg.StartAt+sim.Time(float64(next)*interval), next)
		}
	}
	g.arm(cfg.StartAt, 0)
	return g
}

// PoissonConfig describes a Poisson arrival process of identical frames,
// useful for exercising the replayer on bursty, non-CBR traffic.
type PoissonConfig struct {
	// MeanRatePPS is the average packet rate.
	MeanRatePPS float64
	FrameLen    int
	Count       int
	StartAt     sim.Time
	Stream      uint16
	Flow        packet.FiveTuple
	// Obs, when non-nil, mirrors the CBR emit instrumentation.
	Obs *obs.Obs
}

// StartPoisson schedules a Poisson stream into q using the engine's
// random stream labelled by the stream id.
func StartPoisson(eng *sim.Engine, q *nic.Queue, cfg PoissonConfig) *Generator {
	if cfg.MeanRatePPS <= 0 {
		panic("gen: rate must be positive")
	}
	g := &Generator{eng: eng, act: eng.NewActor(), q: q}
	eo := newEmitObs(eng, cfg.Obs, cfg.Stream)
	rng := eng.Rand(fmt.Sprintf("gen/poisson/%d", cfg.Stream))
	meanGap := 1e9 / cfg.MeanRatePPS
	g.emit = func(i int) {
		pkts := g.slab.Take(1)
		*pkts[0] = packet.Packet{
			Tag:      packet.Tag{Stream: cfg.Stream, Seq: uint64(i)},
			Kind:     packet.KindData,
			FrameLen: cfg.FrameLen,
			Flow:     cfg.Flow,
		}
		eo.record(pkts)
		g.q.SendBurst(pkts)
		g.emitted++
		if i+1 < cfg.Count {
			g.armAfter(sim.Duration(rng.ExpFloat64()*meanGap), i+1)
		}
	}
	g.arm(cfg.StartAt+sim.Duration(rng.ExpFloat64()*meanGap), 0)
	return g
}

// IMIXConfig describes a simple IMIX stream: the classic 7:4:1 mix of
// 64-, 570- and 1400-byte frames at a target packet rate.
type IMIXConfig struct {
	RatePPS float64
	Count   int
	StartAt sim.Time
	Stream  uint16
	Flow    packet.FiveTuple
	// Obs, when non-nil, mirrors the CBR emit instrumentation.
	Obs *obs.Obs
}

// imixSizes is the classic distribution, adjusted so even the smallest
// frame carries the Choir trailer.
var imixSizes = []struct {
	weight int
	size   int
}{
	{7, packet.MinDataFrameLen}, // small
	{4, 570},
	{1, 1400},
}

// imixTotal is the summed weight, hoisted so pickIMIX does not rescan
// the table on every packet.
var imixTotal = func() int {
	t := 0
	for _, e := range imixSizes {
		t += e.weight
	}
	return t
}()

// StartIMIX schedules an IMIX stream into q.
func StartIMIX(eng *sim.Engine, q *nic.Queue, cfg IMIXConfig) *Generator {
	if cfg.RatePPS <= 0 {
		panic("gen: rate must be positive")
	}
	g := &Generator{eng: eng, act: eng.NewActor(), q: q}
	eo := newEmitObs(eng, cfg.Obs, cfg.Stream)
	rng := eng.Rand(fmt.Sprintf("gen/imix/%d", cfg.Stream))
	gap := sim.Duration(1e9 / cfg.RatePPS)
	g.emit = func(i int) {
		pkts := g.slab.Take(1)
		*pkts[0] = packet.Packet{
			Tag:      packet.Tag{Stream: cfg.Stream, Seq: uint64(i)},
			Kind:     packet.KindData,
			FrameLen: pickIMIX(rng),
			Flow:     cfg.Flow,
		}
		eo.record(pkts)
		g.q.SendBurst(pkts)
		g.emitted++
		if i+1 < cfg.Count {
			g.armAfter(gap, i+1)
		}
	}
	g.arm(cfg.StartAt, 0)
	return g
}

func pickIMIX(rng *rand.Rand) int {
	x := rng.Intn(imixTotal)
	for _, e := range imixSizes {
		x -= e.weight
		if x < 0 {
			return e.size
		}
	}
	return imixSizes[len(imixSizes)-1].size
}

// EmpiricalConfig replays the *statistical shape* of a recorded trace:
// frame sizes and inter-arrival gaps are resampled from the capture's
// own empirical distributions. This covers the "traffic generated by
// specified qualities" generator class of §1 without replaying the
// specific packets.
type EmpiricalConfig struct {
	// Gaps is the IAT sample to resample from (e.g. Trace.IATs()).
	// Negative gaps are clamped to zero; the sample must contain at
	// least one positive gap, otherwise the resampled process has
	// infinite instantaneous rate and would dump the whole stream into
	// the NIC ring in a single unbounded synchronous burst.
	Gaps []sim.Duration
	// FrameLens is the frame-size sample, resampled independently.
	FrameLens []int
	// Count is the number of packets to emit.
	Count int
	// StartAt is the emission start time.
	StartAt sim.Time
	// Stream tags the packets.
	Stream uint16
	// Flow is the synthesized 5-tuple.
	Flow packet.FiveTuple
	// Obs, when non-nil, mirrors the CBR emit instrumentation.
	Obs *obs.Obs
}

// StartEmpirical schedules an empirically-shaped stream into q.
func StartEmpirical(eng *sim.Engine, q *nic.Queue, cfg EmpiricalConfig) *Generator {
	if len(cfg.Gaps) == 0 || len(cfg.FrameLens) == 0 {
		panic("gen: empirical generator needs gap and frame-size samples")
	}
	// Sanitize a copy of the gap sample in place of per-draw clamping:
	// indices are preserved so valid inputs keep bit-identical schedules,
	// and a degenerate all-nonpositive sample is rejected up front.
	gaps := make([]sim.Duration, len(cfg.Gaps))
	positive := false
	for i, gp := range cfg.Gaps {
		if gp < 0 {
			gp = 0
		}
		if gp > 0 {
			positive = true
		}
		gaps[i] = gp
	}
	if !positive {
		panic("gen: empirical gap sample has no positive gaps (infinite instantaneous rate)")
	}
	g := &Generator{eng: eng, act: eng.NewActor(), q: q}
	eo := newEmitObs(eng, cfg.Obs, cfg.Stream)
	rng := eng.Rand(fmt.Sprintf("gen/empirical/%d", cfg.Stream))
	g.emit = func(i int) {
		fl := cfg.FrameLens[rng.Intn(len(cfg.FrameLens))]
		if fl < packet.MinDataFrameLen {
			fl = packet.MinDataFrameLen
		}
		pkts := g.slab.Take(1)
		*pkts[0] = packet.Packet{
			Tag:      packet.Tag{Stream: cfg.Stream, Seq: uint64(i)},
			Kind:     packet.KindData,
			FrameLen: fl,
			Flow:     cfg.Flow,
		}
		eo.record(pkts)
		g.q.SendBurst(pkts)
		g.emitted++
		if i+1 < cfg.Count {
			g.armAfter(gaps[rng.Intn(len(gaps))], i+1)
		}
	}
	g.arm(cfg.StartAt, 0)
	return g
}
