// Package tcpsim implements a minimal TCP sender good enough to play the
// role of the paper's iperf3 noise: slow start, AIMD congestion
// avoidance, and timeout-based loss recovery. Eight such flows sharing a
// physical NIC with the replayer reproduce the §7.1 contention
// experiment, including its emergent drops.
package tcpsim

import (
	"fmt"

	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Config parameterizes one TCP flow.
type Config struct {
	// ID distinguishes flows (used in tags, ports and RNG labels).
	ID uint16
	// SegmentLen is the frame length of data segments (default 1514).
	SegmentLen int
	// RTT is the base round-trip time used for ACK return and RTO.
	RTT sim.Duration
	// InitialCwnd in segments (default 10).
	InitialCwnd int
	// MaxCwnd caps the window in segments (default 4096).
	MaxCwnd int
	// StartAt is when the flow begins.
	StartAt sim.Time
	// StopAt ends transmission (0 = never).
	StopAt sim.Time
	// Flow is the 5-tuple for header synthesis.
	Flow packet.FiveTuple
}

func (c *Config) defaults() {
	if c.SegmentLen == 0 {
		c.SegmentLen = 1514
	}
	if c.RTT == 0 {
		c.RTT = 100 * sim.Microsecond
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 10
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 4096
	}
}

// Flow is one TCP sender pushing bulk data through a NIC queue.
type Flow struct {
	cfg      Config
	eng      *sim.Engine
	act      *sim.Actor
	q        *nic.Queue
	cwnd     float64 // in segments
	ssthresh float64
	inflight int
	nextSeq  uint64
	acked    uint64
	timeouts uint64
	sentSegs uint64
	stopped  bool
	slab     packet.Slab
}

// Start launches a TCP flow that sends through q. The flow delivers its
// segments wherever q is connected; the receiver side is modelled by
// acknowledging each delivered segment after half an RTT (the Sink
// endpoint below).
func Start(eng *sim.Engine, q *nic.Queue, cfg Config) *Flow {
	cfg.defaults()
	f := &Flow{
		cfg:      cfg,
		eng:      eng,
		act:      eng.NewActor(),
		q:        q,
		cwnd:     float64(cfg.InitialCwnd),
		ssthresh: float64(cfg.MaxCwnd) / 2,
	}
	f.act.Post(cfg.StartAt, f.pump)
	return f
}

// Stats describes a flow's progress.
type Stats struct {
	SentSegments  uint64
	AckedSegments uint64
	Timeouts      uint64
	Cwnd          float64
}

// Stats returns a snapshot.
func (f *Flow) Stats() Stats {
	return Stats{SentSegments: f.sentSegs, AckedSegments: f.acked, Timeouts: f.timeouts, Cwnd: f.cwnd}
}

// Throughput returns the average goodput in bits per second over the
// flow's active period ending at now.
func (f *Flow) Throughput(now sim.Time) float64 {
	active := now - f.cfg.StartAt
	if active <= 0 {
		return 0
	}
	return float64(f.acked) * float64(f.cfg.SegmentLen) * 8 / active.Seconds()
}

// Stop halts the flow.
func (f *Flow) Stop() { f.stopped = true }

// pump fills the congestion window.
func (f *Flow) pump() {
	now := f.eng.Now()
	if f.stopped || (f.cfg.StopAt != 0 && now >= f.cfg.StopAt) {
		return
	}
	for f.inflight < int(f.cwnd) {
		n := int(f.cwnd) - f.inflight
		if n > tsoBatch {
			n = tsoBatch
		}
		f.sendBatch(n)
	}
}

// tsoBatch is the number of segments handed to the NIC per doorbell,
// matching a kernel TSO/GSO write of ~48 KiB.
const tsoBatch = 32

func (f *Flow) sendBatch(n int) {
	pkts := f.slab.Take(n)
	for _, p := range pkts {
		*p = packet.Packet{
			Tag:      packet.Tag{Replayer: 0xFFFF, Stream: f.cfg.ID, Seq: f.nextSeq},
			Kind:     packet.KindNoise,
			FrameLen: f.cfg.SegmentLen,
			Flow:     f.cfg.Flow,
		}
		f.nextSeq++
	}
	f.inflight += n
	f.sentSegs += uint64(n)
	f.q.SendBurst(pkts)
	// The receiver ACKs one RTT after the batch was handed to the NIC,
	// provided each segment actually reached the wire — a tail-dropped
	// segment is never serialized (SentAt stays zero) and is recovered
	// by the retransmission timeout (4x RTT) instead.
	now := f.eng.Now()
	for _, p := range pkts {
		f.act.PostTo(now+f.rttAfter(1), (*ackTimer)(f), p)
		f.act.PostTo(now+f.rttAfter(4), (*rtoTimer)(f), p)
	}
}

// rttAfter is k RTTs as a non-negative delay (PostAfter's clamp).
func (f *Flow) rttAfter(k sim.Duration) sim.Duration {
	if d := k * f.cfg.RTT; d > 0 {
		return d
	}
	return 0
}

// ackedBy reports whether segment p's ACK was back by instant ackAt:
// the segment was serialized (SentAt set by the NIC) no later than
// then. A segment still queued, or pulled but not yet on the wire, is
// recovered by the RTO.
func ackedBy(p *packet.Packet, ackAt sim.Time) bool {
	return p.SentAt != 0 && p.SentAt <= ackAt
}

// ackTimer and rtoTimer are a flow's per-segment timers: sim.Handlers
// queued with the segment as the argument, so a batch costs no
// closures.
type (
	ackTimer Flow
	rtoTimer Flow
)

// Fire acknowledges the segment if it reached the wire in time.
func (t *ackTimer) Fire(at sim.Time, arg any) {
	if ackedBy(arg.(*packet.Packet), at) {
		(*Flow)(t).onAck()
	}
}

// Fire times the segment out unless its ACK fired. The ACK ran 3 RTTs
// earlier and judged the segment by SentAt, which the flow's NIC sets
// once, when it serializes the segment (noise never crosses a second
// NIC); judging SentAt again at the ACK's instant repeats the ACK's
// verdict without storing it per segment.
func (t *rtoTimer) Fire(at sim.Time, arg any) {
	f := (*Flow)(t)
	if !ackedBy(arg.(*packet.Packet), at-f.rttAfter(4)+f.rttAfter(1)) {
		f.onTimeout()
	}
}

func (f *Flow) onAck() {
	f.inflight--
	f.acked++
	if f.cwnd < f.ssthresh {
		f.cwnd++ // slow start
	} else {
		f.cwnd += 1 / f.cwnd // congestion avoidance
	}
	if max := float64(f.cfg.MaxCwnd); f.cwnd > max {
		f.cwnd = max
	}
	f.pump()
}

func (f *Flow) onTimeout() {
	f.inflight--
	f.timeouts++
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < 2 {
		f.ssthresh = 2
	}
	f.cwnd = float64(f.cfg.InitialCwnd)
	f.pump()
}

// StartIperf launches n parallel flows (iperf3 -P n) through the given
// queues; queues may repeat if the flows share one VF.
func StartIperf(eng *sim.Engine, queues []*nic.Queue, n int, base Config) []*Flow {
	flows := make([]*Flow, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.ID = base.ID + uint16(i)
		cfg.Flow.SrcPort = 40000 + uint16(i)
		flows[i] = Start(eng, queues[i%len(queues)], cfg)
	}
	return flows
}

// AggregateThroughput sums flow throughputs at now.
func AggregateThroughput(flows []*Flow, now sim.Time) float64 {
	var sum float64
	for _, f := range flows {
		sum += f.Throughput(now)
	}
	return sum
}

// String describes the flow.
func (f *Flow) String() string {
	return fmt.Sprintf("tcp-flow %d: sent=%d acked=%d timeouts=%d cwnd=%.1f",
		f.cfg.ID, f.sentSegs, f.acked, f.timeouts, f.cwnd)
}
