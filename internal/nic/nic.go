// Package nic models the network interface cards of the testbed: DPDK
// burst transmission, the doorbell→DMA pull delay that bounds replay
// accuracy (paper §2.3), SR-IOV virtual functions sharing one physical
// pipe, and receive-side hardware timestamping.
//
// A NIC owns one physical line. Dedicated NICs have a single queue;
// shared NICs expose several virtual functions (VFs), each with its own
// finite queue, arbitrated round-robin onto the line. Timing noise is
// injected per the NIC's Profile; queue overflow under contention is how
// packet drops arise (they are never injected directly).
package nic

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// BurstSize is the largest burst a DPDK application hands to the NIC in
// one call; Choir transmits "in up to 64-packet bursts" (paper §5).
const BurstSize = 64

// Endpoint is anything that can terminate a wire: a switch port, a
// recorder, a middlebox.
type Endpoint interface {
	// Receive is called when a frame finishes arriving at wireTime.
	Receive(p *packet.Packet, wireTime sim.Time)
}

// Wire is the delivering end of one connection: a sim.Handler that
// hands the frame carried as the event argument to To at the event's
// instant. Queue.Connect and netsw.Port.Attach create one per wiring,
// so each frame put on the line costs a queued (wire, frame) pair
// rather than a closure, and frames in flight keep the far end they
// left for even if the near end is rewired.
type Wire struct{ To Endpoint }

// Fire implements sim.Handler.
func (w *Wire) Fire(at sim.Time, arg any) { w.To.Receive(arg.(*packet.Packet), at) }

// Profile captures a NIC's timing personality. All distributions may be
// nil, meaning "perfect" (zero).
type Profile struct {
	// Name for diagnostics ("ConnectX-5", "ConnectX-6 VF", ...).
	Name string
	// LineRateBps is the physical line rate.
	LineRateBps int64
	// PullLatency is the doorbell→wire delay sampled for each DMA pull
	// that starts from an idle engine — the delay the paper identifies
	// as the accuracy bound for any DPDK replayer.
	PullLatency sim.Dist
	// ColdPullExtra is added to the first pull after the engine has
	// been idle for ColdThreshold — descriptor caches and doorbell
	// paths are cold at the start of a replay run. This is the run-level
	// constant offset behind the paper's one-sided latency spikes.
	ColdPullExtra sim.Dist
	// ColdThreshold is the idle time after which a pull is cold.
	// Zero means 1 ms.
	ColdThreshold sim.Duration
	// PerPacketJitter perturbs each frame's wire emission instant
	// without reordering the line.
	PerPacketJitter sim.Dist
	// RepaceProb is the probability that a pulled burst is "re-paced":
	// its frames get jitter from RepaceJitter instead of
	// PerPacketJitter. This models the FABRIC dedicated-NIC path where
	// the virtualized DMA occasionally re-batches a burst, producing
	// the bimodal IAT distribution of Figures 6/8.
	RepaceProb   float64
	RepaceJitter sim.Dist
	// VFSwitchOverhead is added whenever the arbiter moves to a
	// different VF's queue (shared NICs only).
	VFSwitchOverhead sim.Dist
	// PacketInterleave makes the VF arbiter multiplex at packet
	// granularity instead of burst granularity — how a physical SR-IOV
	// scheduler actually shares the line. Scheduling is byte-fair
	// (deficit round robin) so a VF sending jumbo frames cannot starve
	// one sending small frames. Under contention, competing VFs'
	// frames land between a flow's packets, perturbing its IATs by
	// whole serialization times.
	PacketInterleave bool
}

// drrQuantum is the per-visit byte credit of the packet-interleaving
// arbiter.
const drrQuantum = 2048

func (p *Profile) coldThreshold() sim.Duration {
	if p.ColdThreshold == 0 {
		return sim.Millisecond
	}
	return p.ColdThreshold
}

func sample(d sim.Dist, rng *rand.Rand) sim.Duration {
	if d == nil {
		return 0
	}
	return d.Sample(rng)
}

// NIC is one physical adapter. Use NewQueue to create its queues (one
// for a dedicated NIC, several for SR-IOV VFs).
type NIC struct {
	eng        *sim.Engine
	act        *sim.Actor
	prof       Profile
	label      string
	rng        *rand.Rand
	queues     []*Queue
	nextVF     int
	lastServed *Queue
	active     bool
	busyTil    sim.Time // line busy-until
	lastUse    sim.Time // when the DMA engine last finished work
	stall      *sim.StallTimeline

	// ob is the optional observability hookup; nil (the default) keeps
	// every hot path un-instrumented behind a single branch.
	ob *nicObs
}

// nicObs bundles this NIC's instruments; created only by EnableObs.
type nicObs struct {
	tr         *obs.Tracer
	track      string
	sent       *obs.Counter
	drops      *obs.Counter
	doorbells  *obs.Counter
	vfSwitches *obs.Counter
	ringPeak   *obs.Gauge
	pullLat    *obs.Histogram
}

// New creates a NIC with the given profile. The label seeds this NIC's
// private random stream.
func New(eng *sim.Engine, prof Profile, label string) *NIC {
	if prof.LineRateBps <= 0 {
		panic("nic: line rate must be positive")
	}
	return &NIC{
		eng:   eng,
		act:   eng.NewActor(),
		prof:  prof,
		label: label,
		rng:   eng.Rand("nic/" + label),
		// A never-used engine is maximally cold.
		lastUse: -(1 << 62),
	}
}

// SimEngine reports the engine this NIC runs on (sim.Hosted), letting
// far ends of a partitioned topology route deliveries to it.
func (n *NIC) SimEngine() *sim.Engine { return n.eng }

// EnableObs attaches metrics and packet-lifecycle tracing to this NIC:
// TX-ring occupancy high-water, doorbell rings, per-pull DMA latency,
// VF arbitration context switches, drops — plus, for sampled packets,
// a `nic:ring` span (enqueue → DMA pull) and a `nic:wire` span
// (pull → wire emission) in simulated nanoseconds. A nil handle is a
// no-op, keeping the hot path free of instrumentation.
func (n *NIC) EnableObs(o *obs.Obs) {
	if o == nil || (o.Reg == nil && o.Tracer == nil) {
		return
	}
	lbl := obs.L("nic", n.label)
	reg := o.Reg
	n.ob = &nicObs{
		tr:         o.Tracer,
		track:      "nic/" + n.label,
		sent:       reg.Counter("nic_tx_packets_total", "frames put on the wire", lbl),
		drops:      reg.Counter("nic_tx_drops_total", "frames tail-dropped at TX ring overflow", lbl),
		doorbells:  reg.Counter("nic_doorbells_total", "doorbell rings (SendBurst calls that enqueued)", lbl),
		vfSwitches: reg.Counter("nic_vf_switches_total", "VF arbitration context switches", lbl),
		ringPeak:   reg.Gauge("nic_ring_occupancy_peak_packets", "high-water TX ring occupancy across all queues", lbl),
		pullLat:    reg.Histogram("nic_pull_latency_ns", "doorbell→DMA pull latency (sim ns)", 7, lbl),
	}
}

// SetStallTimeline attaches a host-side stall model (vCPU steal); DMA
// pulls scheduled during a stall are deferred to its end.
func (n *NIC) SetStallTimeline(s *sim.StallTimeline) { n.stall = s }

// Profile returns the NIC's timing profile.
func (n *NIC) Profile() Profile { return n.prof }

// Queue is a transmit queue: the sole queue of a dedicated NIC or one
// SR-IOV virtual function of a shared NIC.
type Queue struct {
	nic      *NIC
	peer     *Wire
	peerEng  *sim.Engine // engine hosting peer.To; == nic.eng when co-located
	prop     sim.Duration
	capPkts  int
	bursts   [][]*packet.Packet // bursts[head:] are queued, oldest first (see popBurst)
	head     int
	deficit  int
	queued   int
	sent     uint64
	dropped  uint64
	doorbell uint64
}

// NewQueue adds a transmit queue with the given capacity in packets
// (<=0 means a deep 64 Ki-packet ring).
func (n *NIC) NewQueue(capPkts int) *Queue {
	if capPkts <= 0 {
		capPkts = 64 * 1024
	}
	q := &Queue{nic: n, capPkts: capPkts}
	n.queues = append(n.queues, q)
	return q
}

// Connect attaches the queue's traffic to a far-end endpoint with the
// given propagation delay. The endpoint is probed for sim.Hosted so
// that, in a partitioned run, deliveries route to its engine; frames
// leave no earlier than prop after the drain that emits them, so prop
// is this wire's lookahead.
func (q *Queue) Connect(peer Endpoint, prop sim.Duration) {
	q.peer = &Wire{To: peer}
	q.prop = prop
	q.peerEng = sim.EngineOf(peer, q.nic.eng)
	if r := q.nic.eng.Router(); r != nil && q.peerEng != q.nic.eng {
		r.Link(q.nic.eng, q.peerEng, prop)
	}
}

// SimEngine reports the engine this queue's NIC runs on (sim.Hosted),
// so traffic sources can schedule alongside the queue they feed.
func (q *Queue) SimEngine() *sim.Engine { return q.nic.eng }

// backlogged reports whether any burst is queued.
func (q *Queue) backlogged() bool { return q.head < len(q.bursts) }

// popBurst drops the oldest queued burst by advancing head, not by
// reslicing the front away, so bursts cycling through the queue reuse
// one array instead of reallocating it. A drained queue rewinds to
// the front of the array; a persistent backlog is shifted down once
// the dead prefix outgrows it, keeping the array proportional to the
// backlog.
func (q *Queue) popBurst() {
	q.bursts[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.bursts):
		q.bursts, q.head = q.bursts[:0], 0
	case q.head >= 64 && 2*q.head >= len(q.bursts):
		n := copy(q.bursts, q.bursts[q.head:])
		clear(q.bursts[n:])
		q.bursts, q.head = q.bursts[:n], 0
	}
}

// Sent returns frames put on the wire from this queue.
func (q *Queue) Sent() uint64 { return q.sent }

// Dropped returns frames tail-dropped due to queue overflow.
func (q *Queue) Dropped() uint64 { return q.dropped }

// Depth returns the packets currently queued.
func (q *Queue) Depth() int { return q.queued }

// SendBurst enqueues up to BurstSize packets and rings the doorbell.
// Packets beyond the queue capacity are tail-dropped, which is how
// drops materialize under shared-NIC contention (§7.1).
func (q *Queue) SendBurst(pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	if q.peer == nil {
		panic(fmt.Sprintf("nic %s: queue not connected", q.nic.prof.Name))
	}
	room := q.capPkts - q.queued
	if room <= 0 {
		q.dropped += uint64(len(pkts))
		if ob := q.nic.ob; ob != nil {
			ob.drops.Add(int64(len(pkts)))
		}
		return
	}
	if len(pkts) > room {
		q.dropped += uint64(len(pkts) - room)
		if ob := q.nic.ob; ob != nil {
			ob.drops.Add(int64(len(pkts) - room))
		}
		pkts = pkts[:room]
	}
	q.bursts = append(q.bursts, pkts)
	q.queued += len(pkts)
	q.doorbell++
	if ob := q.nic.ob; ob != nil {
		ob.doorbells.Inc()
		ob.ringPeak.MaxInt(int64(q.queued))
		if ob.tr != nil {
			now := q.nic.eng.Now()
			for _, p := range pkts {
				ob.tr.Begin(p.Tag, obs.StageNICRing, ob.track, now)
			}
		}
	}
	q.nic.kick()
}

// kick starts the DMA engine if it is idle.
func (n *NIC) kick() {
	if n.active {
		return
	}
	n.active = true
	now := n.eng.Now()
	delay := sample(n.prof.PullLatency, n.rng)
	if now-n.lastUse >= n.prof.coldThreshold() {
		delay += sample(n.prof.ColdPullExtra, n.rng)
	}
	if delay < 0 {
		delay = 0
	}
	at := now + delay
	// The engine may have gone idle with serializations still in
	// flight; the next pull cannot outrun the line.
	if at < n.busyTil {
		at = n.busyTil
	}
	if n.stall != nil {
		at = n.stall.Adjust(at)
	}
	if n.ob != nil {
		n.ob.pullLat.Observe(int64(at - now))
	}
	n.act.PostTo(at, n, nil)
}

// Fire implements sim.Handler: the NIC's one event is a DMA drain.
func (n *NIC) Fire(sim.Time, any) { n.drain() }

// drain pulls the next unit of work — a whole burst, or a single packet
// when the arbiter interleaves at packet granularity — from the next
// eligible queue and serializes it onto the line, then reschedules
// itself while work remains.
func (n *NIC) drain() {
	interleave := n.prof.PacketInterleave && len(n.queues) > 1
	var q *Queue
	var burst []*packet.Packet
	if interleave {
		q = n.pickDRR()
		if q != nil {
			head := q.bursts[q.head]
			burst = head[:1]
			if len(head) == 1 {
				q.popBurst()
			} else {
				q.bursts[q.head] = head[1:]
			}
		}
	} else {
		q = n.pickQueue()
		if q != nil {
			burst = q.bursts[q.head]
			q.popBurst()
		}
	}
	if q == nil {
		n.active = false
		n.lastUse = n.eng.Now()
		return
	}
	q.queued -= len(burst)

	now := n.eng.Now()
	if n.busyTil < now {
		n.busyTil = now
	}
	// Changing VF mid-stream costs the arbiter a context switch.
	if n.lastServed != nil && n.lastServed != q {
		n.busyTil += maxD(0, sample(n.prof.VFSwitchOverhead, n.rng))
		if n.ob != nil {
			n.ob.vfSwitches.Inc()
		}
	}
	n.lastServed = q

	jitterDist := n.prof.PerPacketJitter
	if n.prof.RepaceProb > 0 && n.rng.Float64() < n.prof.RepaceProb {
		jitterDist = n.prof.RepaceJitter
	}
	for _, p := range burst {
		start := n.busyTil
		if j := sample(jitterDist, n.rng); j > 0 {
			start += j
		} else {
			// Negative jitter cannot pre-empt the line; it only
			// tightens a gap if one exists.
			start += j
			if start < n.busyTil {
				start = n.busyTil
			}
		}
		end := start + packet.SerializationTime(p.FrameLen, n.prof.LineRateBps)
		n.busyTil = end
		p.SentAt = end
		q.sent++
		if ob := n.ob; ob != nil {
			ob.sent.Inc()
			if ob.tr != nil {
				// Ring residency ends at the pull; the wire span covers
				// DMA + serialization in simulated nanoseconds.
				ob.tr.End(p.Tag, obs.StageNICRing, now)
				ob.tr.Span(p.Tag, obs.StageNICWire, ob.track, now, end)
			}
		}
		n.act.SendTo(q.peerEng, end+q.prop, q.peer, p)
	}

	// Continue when the line frees up.
	if n.peekQueue() == nil {
		n.active = false
		n.lastUse = n.busyTil
		return
	}
	at := n.busyTil
	if at < n.eng.Now() {
		at = n.eng.Now()
	}
	n.act.PostTo(at, n, nil)
}

// pickDRR selects the next queue by byte-fair deficit round robin and
// leaves its head packet eligible (deficit already charged). Returns nil
// when every queue is empty.
func (n *NIC) pickDRR() *Queue {
	nonEmpty := 0
	for _, q := range n.queues {
		if q.backlogged() {
			nonEmpty++
		} else {
			q.deficit = 0
		}
	}
	if nonEmpty == 0 {
		return nil
	}
	for {
		q := n.queues[n.nextVF]
		if !q.backlogged() {
			n.nextVF = (n.nextVF + 1) % len(n.queues)
			continue
		}
		need := packet.WireBytes(q.bursts[q.head][0].FrameLen)
		if q.deficit >= need {
			q.deficit -= need
			return q
		}
		q.deficit += drrQuantum
		n.nextVF = (n.nextVF + 1) % len(n.queues)
	}
}

// pickQueue returns the next non-empty queue round-robin, advancing the
// arbiter, or nil.
func (n *NIC) pickQueue() *Queue {
	for i := 0; i < len(n.queues); i++ {
		q := n.queues[(n.nextVF+i)%len(n.queues)]
		if q.backlogged() {
			n.nextVF = (n.nextVF + i + 1) % len(n.queues)
			return q
		}
	}
	return nil
}

// peekQueue returns the queue pickQueue would choose without advancing.
func (n *NIC) peekQueue() *Queue {
	for i := 0; i < len(n.queues); i++ {
		q := n.queues[(n.nextVF+i)%len(n.queues)]
		if q.backlogged() {
			return q
		}
	}
	return nil
}

func maxD(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}
