// Package netsw models the experiment switches: the local testbed's
// Tofino2 running a simple ingress→egress port-forwarding program, and
// the Cisco 5700s FABRIC sites deploy. Forwarding is statically
// configured per ingress port, exactly like the paper's P4 program.
//
// Each egress port serializes frames at its line rate with a finite
// byte-bounded queue; congestion across ingress ports is the only way a
// switch drops packets.
package netsw

import (
	"fmt"
	"math/rand"

	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Profile captures a switch's timing personality.
type Profile struct {
	// Name for diagnostics ("Tofino2", "Cisco5700").
	Name string
	// ForwardLatency is the ingress→egress pipeline latency per frame.
	// Cut-through switches have a tight, small distribution;
	// store-and-forward switches add the buffering variance the paper
	// suspects contributes to FABRIC's extra IAT noise.
	ForwardLatency sim.Dist
	// PortRateBps is each port's line rate.
	PortRateBps int64
	// EgressQueueBytes bounds each egress queue; 0 means 16 MiB.
	EgressQueueBytes int
}

func (p *Profile) queueBytes() int {
	if p.EgressQueueBytes <= 0 {
		return 16 << 20
	}
	return p.EgressQueueBytes
}

// Tofino2 returns the local testbed's AS9516-32D profile: cut-through
// with a sub-100ns, very tight pipeline.
func Tofino2(rateBps int64) Profile {
	return Profile{
		Name:           "Tofino2",
		ForwardLatency: sim.Clamp{D: sim.Normal{Mu: 60, Sigma: 1.2}, Lo: 50, Hi: 120},
		PortRateBps:    rateBps,
	}
}

// Cisco5700 returns the FABRIC site switch profile: store-and-forward
// with a larger and noisier pipeline latency.
func Cisco5700(rateBps int64) Profile {
	return Profile{
		Name:           "Cisco5700",
		ForwardLatency: sim.Clamp{D: sim.Normal{Mu: 800, Sigma: 9}, Lo: 500, Hi: 3000},
		PortRateBps:    rateBps,
	}
}

// Switch is a statically-routed L2 forwarding element.
type Switch struct {
	eng   *sim.Engine
	act   *sim.Actor
	prof  Profile
	label string
	rng   *rand.Rand
	ports []*Port

	ob *swObs
}

// swObs bundles the switch's instruments; created only by EnableObs.
type swObs struct {
	tr        *obs.Tracer
	track     string
	forwarded *obs.Counter
	dropped   *obs.Counter
	lost      *obs.Counter
	queuePeak *obs.Gauge
}

// New creates a switch; label seeds its private random stream.
func New(eng *sim.Engine, prof Profile, label string) *Switch {
	if prof.PortRateBps <= 0 {
		panic("netsw: port rate must be positive")
	}
	return &Switch{eng: eng, act: eng.NewActor(), prof: prof, label: label, rng: eng.Rand("switch/" + label)}
}

// SimEngine reports the engine this switch runs on (sim.Hosted).
func (s *Switch) SimEngine() *sim.Engine { return s.eng }

// EnableObs attaches metrics and packet-lifecycle tracing: forwarded /
// egress-drop / failure-loss counters, egress queue depth high-water
// (bytes), and a `switch` span (ingress arrival → egress serialization
// done) for sampled packets. A nil handle is a no-op.
func (s *Switch) EnableObs(o *obs.Obs) {
	if o == nil || (o.Reg == nil && o.Tracer == nil) {
		return
	}
	lbl := obs.L("switch", s.label)
	s.ob = &swObs{
		tr:        o.Tracer,
		track:     "switch/" + s.label,
		forwarded: o.Reg.Counter("switch_forwarded_total", "frames forwarded out an egress port", lbl),
		dropped:   o.Reg.Counter("switch_egress_drops_total", "frames dropped at a full egress queue", lbl),
		lost:      o.Reg.Counter("switch_failure_losses_total", "frames lost to injected failure windows", lbl),
		queuePeak: o.Reg.Gauge("switch_egress_queue_peak_bytes", "high-water egress queue depth across ports", lbl),
	}
}

// Port is one switch port. It implements nic.Endpoint so device queues
// can connect straight to it; frames received on a port are forwarded to
// the port configured with Forward.
type Port struct {
	sw        *Switch
	id        int
	out       *nic.Wire
	outEng    *sim.Engine // engine hosting out.To; == sw.eng when co-located
	prop      sim.Duration
	routeTo   int
	busyTil   sim.Time
	queued    int
	forwarded uint64
	dropped   uint64
	downFrom  sim.Time
	downTo    sim.Time
	lost      uint64
}

// AddPort creates the next port (ids are sequential from 0); routes
// default to "drop" until Forward is called.
func (s *Switch) AddPort() *Port {
	p := &Port{sw: s, id: len(s.ports), routeTo: -1}
	s.ports = append(s.ports, p)
	return p
}

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// Forward installs the static route: frames arriving on ingress leave
// through egress — one table entry of the paper's forwarding program.
func (s *Switch) Forward(ingress, egress int) {
	if ingress < 0 || ingress >= len(s.ports) || egress < 0 || egress >= len(s.ports) {
		panic(fmt.Sprintf("netsw: route %d->%d out of range", ingress, egress))
	}
	s.ports[ingress].routeTo = egress
}

// Attach connects the port's egress side to a device with the given
// propagation delay. The device is probed for sim.Hosted so deliveries
// route to its engine in a partitioned run; a frame leaves no earlier
// than the pipeline-latency floor plus prop after its ingress event, so
// that sum is this wire's lookahead.
func (p *Port) Attach(dev nic.Endpoint, prop sim.Duration) {
	p.out = &nic.Wire{To: dev}
	p.prop = prop
	p.outEng = sim.EngineOf(dev, p.sw.eng)
	if r := p.sw.eng.Router(); r != nil && p.outEng != p.sw.eng {
		r.Link(p.sw.eng, p.outEng, prop+sim.DistFloor(p.sw.prof.ForwardLatency))
	}
}

// SimEngine reports the engine this port's switch runs on (sim.Hosted),
// so device queues connecting to the port can route frames to it.
func (p *Port) SimEngine() *sim.Engine { return p.sw.eng }

// Forwarded returns frames sent out of this port.
func (p *Port) Forwarded() uint64 { return p.forwarded }

// Dropped returns frames dropped at this port's egress queue.
func (p *Port) Dropped() uint64 { return p.dropped }

// FailBetween takes the port's ingress down for [from, to): frames
// arriving in the window are lost, as in a link flap or optic failure.
// Use for failure-injection experiments; the consistency metrics (U,
// and windowed κ) should localize the episode.
func (p *Port) FailBetween(from, to sim.Time) {
	p.downFrom, p.downTo = from, to
}

// Lost returns frames dropped by an injected failure window.
func (p *Port) Lost() uint64 { return p.lost }

// Receive implements nic.Endpoint: a frame has fully arrived on this
// ingress port.
func (p *Port) Receive(pkt *packet.Packet, at sim.Time) {
	if at >= p.downFrom && at < p.downTo {
		p.lost++
		if ob := p.sw.ob; ob != nil {
			ob.lost.Inc()
		}
		return
	}
	if p.routeTo < 0 {
		return // no route: dropped silently like an unprogrammed table
	}
	eg := p.sw.ports[p.routeTo]
	fl := p.sw.prof.ForwardLatency
	var lat sim.Duration
	if fl != nil {
		lat = fl.Sample(p.sw.rng)
		if lat < 0 {
			lat = 0
		}
	}
	if ob := p.sw.ob; ob != nil && ob.tr != nil {
		// Span opens at ingress arrival; it closes when the egress port
		// finishes serializing the frame (see transmit).
		ob.tr.Begin(pkt.Tag, obs.StageSwitch, ob.track, at)
	}
	eg.transmit(pkt, at+lat)
}

// transmit serializes the frame out of the egress port.
func (p *Port) transmit(pkt *packet.Packet, ready sim.Time) {
	if p.out == nil {
		return
	}
	wb := packet.WireBytes(pkt.FrameLen)
	if p.queued+wb > p.sw.prof.queueBytes() {
		p.dropped++
		if ob := p.sw.ob; ob != nil {
			ob.dropped.Inc()
		}
		return
	}
	p.queued += wb
	start := ready
	if p.busyTil > start {
		start = p.busyTil
	}
	end := start + packet.SerializationTime(pkt.FrameLen, p.sw.prof.PortRateBps)
	p.busyTil = end
	p.forwarded++
	if ob := p.sw.ob; ob != nil {
		ob.forwarded.Inc()
		ob.queuePeak.MaxInt(int64(p.queued))
	}
	p.sw.act.PostTo(end, p, pkt)
	// The delivery instant is already determined, so the wire event is
	// issued here rather than from the end-of-serialization event — in
	// a partitioned run it may cross to the device's domain, and a
	// crossing must be sent while the ingress event (whose time the
	// lookahead promise is anchored to) is still executing.
	p.sw.act.SendTo(p.outEng, end+p.prop, p.out, pkt)
}

// Fire implements sim.Handler for the end of a frame's egress queue
// residency (queued by transmit, the frame as the argument): the frame
// has finished serializing, so its bytes leave the queue.
func (p *Port) Fire(at sim.Time, arg any) {
	pkt := arg.(*packet.Packet)
	p.queued -= packet.WireBytes(pkt.FrameLen)
	if ob := p.sw.ob; ob != nil && ob.tr != nil {
		ob.tr.End(pkt.Tag, obs.StageSwitch, at)
	}
}
