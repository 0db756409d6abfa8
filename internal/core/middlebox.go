// Package core implements Choir itself (paper §4–5): a transparent
// middlebox that forwards traffic at line rate in up-to-64-packet
// bursts, records forwarded bursts in RAM (zero-copy) together with TSC
// timestamps, and later replays each burst when the TSC reaches the
// recorded value plus a delta derived from a commanded wall-clock start
// time.
//
// The middlebox is in-situ: it forwards permanently and switches between
// standby, recording and replaying purely through control commands — no
// topology rebuild.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/dpdk"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// DefaultPollInterval is the RX poll quantum when the middlebox is not
// saturated; at 40 Gbps it yields bursts near the 64-packet DPDK limit.
const DefaultPollInterval = 15 * sim.Microsecond

// Config assembles a middlebox.
type Config struct {
	// ID is the replay-node identifier stamped into the tag of every
	// forwarded packet ("which included the replay node they were
	// emitted by", §6).
	ID uint16
	// TSC is the node's cycle counter used for burst timestamps and
	// replay pacing.
	TSC *clock.TSC
	// Wall is the node's PTP/NTP-disciplined system clock, used only to
	// translate commanded wall-clock start times.
	Wall *clock.SystemClock
	// Out is the bridged egress queue.
	Out *nic.Queue
	// PollInterval overrides DefaultPollInterval when positive.
	PollInterval sim.Duration
	// Stall models vCPU steal against the forwarding/replay thread.
	Stall *sim.StallTimeline
	// ReplayStartJitter is the scheduling error between the commanded
	// replay start and the replay loop actually arming — thread wakeup
	// and command-processing slop. Relative jitter between parallel
	// replayers is what produces the paper's §6.2 reordering.
	ReplayStartJitter sim.Dist
	// MaxRecordPackets bounds the replay buffer (RAM is the primary
	// restriction, §5); 0 means 8 Mi packets.
	MaxRecordPackets uint64
	// Pool is the mbuf pool backing the receive path (nil = unbounded
	// memory). Recording pins the forwarded packets' buffers, so a
	// recording larger than the pool starves RX — the §5 "primary
	// restriction is RAM" constraint made mechanical.
	Pool *dpdk.MemPool
}

// recordedBurst is one transmitted burst held in the replay buffer: the
// packets (no copy) and the TSC value at transmission.
type recordedBurst struct {
	tsc  uint64
	pkts []*packet.Packet
}

// Middlebox is one Choir instance.
type Middlebox struct {
	cfg Config
	eng *sim.Engine
	act *sim.Actor
	rng *rand.Rand

	// rx staging between polls
	rxbuf     []*packet.Packet
	pollArmed bool

	// recording state
	recording bool
	rolling   bool
	stopAt    sim.Time // sim-time bound, 0 = none
	bursts    []recordedBurst
	recorded  uint64
	truncated bool
	rxNoMbuf  uint64

	// replay state
	replaying    bool
	replaysRun   uint64
	replayedPkts uint64
	// The replay cursor (see armReplay): the bursts being replayed, each
	// one's emission time, how many have been emitted, the lane
	// sequence number of burst 0, and the one armed event — the next
	// burst, or the end of the replay.
	replayBursts []recordedBurst
	replayTimes  []sim.Time
	replayNext   int
	replayBase   uint64
	replayEv     *sim.Event
	paused       bool
	// The poll and replay-cursor callbacks, bound once.
	pollFn, emitFn, endFn func()

	ob *mbObs
}

// mbObs bundles the middlebox's instruments; created only by EnableObs.
type mbObs struct {
	tr           *obs.Tracer
	track        string
	recorded     *obs.Counter
	replayed     *obs.Counter
	pauses       *obs.Counter
	resumes      *obs.Counter
	rxNoMbuf     *obs.Counter
	bufOccupancy *obs.Gauge
	bufPeak      *obs.Gauge
	slip         *obs.Histogram
}

// EnableObs attaches metrics and tracing to this middlebox: recording
// buffer occupancy (current + high-water), burst schedule slip between
// the TSC-ideal emission instant and the actually scheduled one
// (jitter + stall + ordering delays), pause/resume events, mbuf-pool RX
// drops — plus `mb:record` / `mb:replay` instants for sampled packets.
// A nil handle is a no-op.
func (m *Middlebox) EnableObs(o *obs.Obs) {
	if o == nil || (o.Reg == nil && o.Tracer == nil) {
		return
	}
	lbl := obs.L("mb", fmt.Sprintf("%d", m.cfg.ID))
	reg := o.Reg
	m.ob = &mbObs{
		tr:           o.Tracer,
		track:        fmt.Sprintf("mb/%d", m.cfg.ID),
		recorded:     reg.Counter("mb_recorded_packets_total", "packets appended to the replay buffer", lbl),
		replayed:     reg.Counter("mb_replayed_packets_total", "packets re-transmitted by replays", lbl),
		pauses:       reg.Counter("mb_replay_pauses_total", "PauseReplay commands honored", lbl),
		resumes:      reg.Counter("mb_replay_resumes_total", "ResumeReplay commands honored", lbl),
		rxNoMbuf:     reg.Counter("mb_rx_drops_no_mbuf_total", "frames lost to mbuf pool exhaustion", lbl),
		bufOccupancy: reg.Gauge("mb_record_buffer_packets", "current replay buffer occupancy", lbl),
		bufPeak:      reg.Gauge("mb_record_buffer_peak_packets", "high-water replay buffer occupancy", lbl),
		slip:         reg.Histogram("mb_replay_burst_slip_ns", "scheduled burst emission minus TSC-ideal instant (sim ns)", 7, lbl),
	}
}

// New creates a middlebox. It panics on an incomplete config: a
// middlebox without clocks or an egress cannot forward.
func New(eng *sim.Engine, cfg Config) *Middlebox {
	if cfg.TSC == nil || cfg.Wall == nil || cfg.Out == nil {
		panic("core: middlebox requires TSC, Wall and Out")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.MaxRecordPackets == 0 {
		cfg.MaxRecordPackets = 8 << 20
	}
	m := &Middlebox{
		cfg: cfg,
		eng: eng,
		act: eng.NewActor(),
		rng: eng.Rand(fmt.Sprintf("choir/%d", cfg.ID)),
	}
	m.pollFn, m.emitFn, m.endFn = m.poll, m.emitBurst, m.endReplay
	return m
}

// SimEngine reports the engine this middlebox runs on (sim.Hosted).
func (m *Middlebox) SimEngine() *sim.Engine { return m.eng }

// Receive implements nic.Endpoint: a frame arrived on the bridged
// ingress. In-band control frames are executed immediately and never
// forwarded; everything else is picked up by the forwarding thread at
// its next poll.
func (m *Middlebox) Receive(p *packet.Packet, at sim.Time) {
	if p.Kind == packet.KindControl {
		if cmd, err := control.Unmarshal(p.Control); err == nil {
			m.HandleCommand(cmd, at)
		}
		return
	}
	if m.cfg.Pool != nil && m.cfg.Pool.Alloc(1) == 0 {
		// No mbuf available: the frame is lost at RX, exactly like
		// rte_pktmbuf_alloc failing under memory pressure.
		m.rxNoMbuf++
		if m.ob != nil {
			m.ob.rxNoMbuf.Inc()
		}
		return
	}
	m.rxbuf = append(m.rxbuf, p)
	m.armPoll(m.eng.Now() + m.cfg.PollInterval)
}

// RxDropsNoMbuf counts frames lost because the mbuf pool was exhausted.
func (m *Middlebox) RxDropsNoMbuf() uint64 { return m.rxNoMbuf }

func (m *Middlebox) armPoll(at sim.Time) {
	if m.pollArmed {
		return
	}
	m.pollArmed = true
	if m.cfg.Stall != nil {
		at = m.cfg.Stall.Adjust(at)
	}
	if at < m.eng.Now() {
		at = m.eng.Now()
	}
	m.act.Post(at, m.pollFn)
}

// poll drains up to one burst from the RX staging buffer, transmits it,
// and records it if recording. Saturated input is drained with
// back-to-back polls, exactly like a DPDK rx_burst loop.
func (m *Middlebox) poll() {
	m.pollArmed = false
	if len(m.rxbuf) == 0 {
		return
	}
	n := len(m.rxbuf)
	if n > nic.BurstSize {
		n = nic.BurstSize
	}
	burst := make([]*packet.Packet, n)
	copy(burst, m.rxbuf[:n])
	rest := copy(m.rxbuf, m.rxbuf[n:])
	m.rxbuf = m.rxbuf[:rest]

	for _, p := range burst {
		p.Tag.Replayer = m.cfg.ID
	}
	m.cfg.Out.SendBurst(burst)

	kept := false
	if m.recording && (m.stopAt == 0 || m.eng.Now() < m.stopAt) {
		switch {
		case m.recorded+uint64(n) <= m.cfg.MaxRecordPackets:
			// Zero-copy: hold the transmitted burst and its TSC stamp.
			// The mbufs stay pinned (not freed) for replay.
			m.bursts = append(m.bursts, recordedBurst{
				tsc:  m.cfg.TSC.Read(m.eng.Now()),
				pkts: burst,
			})
			m.recorded += uint64(n)
			kept = true
		case m.rolling:
			// Circular mode: evict the oldest bursts to make room, so
			// the buffer always holds the most recent window.
			m.bursts = append(m.bursts, recordedBurst{
				tsc:  m.cfg.TSC.Read(m.eng.Now()),
				pkts: burst,
			})
			m.recorded += uint64(n)
			kept = true
			for m.recorded > m.cfg.MaxRecordPackets && len(m.bursts) > 1 {
				evicted := len(m.bursts[0].pkts)
				m.recorded -= uint64(evicted)
				m.bursts = m.bursts[1:]
				if m.cfg.Pool != nil {
					m.cfg.Pool.Free(evicted)
				}
			}
		default:
			m.truncated = true
		}
	}
	if kept && m.ob != nil {
		m.ob.recorded.Add(int64(n))
		m.ob.bufOccupancy.SetInt(int64(m.recorded))
		m.ob.bufPeak.MaxInt(int64(m.recorded))
		if m.ob.tr != nil {
			now := m.eng.Now()
			for _, p := range burst {
				m.ob.tr.Instant(p.Tag, obs.StageRecord, m.ob.track, now)
			}
		}
	}
	if !kept && m.cfg.Pool != nil {
		// Plain forwarding: buffers return to the pool once handed to
		// the NIC.
		m.cfg.Pool.Free(n)
	}

	if len(m.rxbuf) > 0 {
		// Saturated: poll again immediately.
		m.armPoll(m.eng.Now())
	}
}

// HandleCommand implements control.Handler.
func (m *Middlebox) HandleCommand(cmd control.Command, _ sim.Time) {
	switch c := cmd.(type) {
	case control.StartRecord:
		at := m.cfg.Wall.SimTimeFor(c.At)
		if at < m.eng.Now() {
			at = m.eng.Now()
		}
		maxPkts, rolling := c.MaxPackets, c.Rolling
		m.act.Post(at, func() { m.startRecord(maxPkts, rolling) })
	case control.StopRecord:
		at := m.cfg.Wall.SimTimeFor(c.At)
		if at <= m.eng.Now() {
			m.stopRecord()
			return
		}
		m.act.Post(at, m.stopRecord)
	case control.StartReplay:
		m.startReplay(c.At)
	case control.PauseReplay:
		m.pauseReplay()
	case control.ResumeReplay:
		m.resumeReplay(c.At)
	}
}

func (m *Middlebox) startRecord(maxPkts uint64, rolling bool) {
	m.recording = true
	m.rolling = rolling
	m.stopAt = 0
	if m.cfg.Pool != nil && m.recorded > 0 {
		// A new recording releases the previous one's pinned buffers.
		m.cfg.Pool.Free(int(m.recorded))
	}
	m.bursts = nil
	m.recorded = 0
	m.truncated = false
	if maxPkts > 0 && maxPkts < m.cfg.MaxRecordPackets {
		m.cfg.MaxRecordPackets = maxPkts
	}
}

func (m *Middlebox) stopRecord() {
	m.recording = false
}

// startReplay implements the paper's replay arithmetic: the user names a
// future wall-clock time; the middlebox converts the wait into a TSC
// delta using the CPU frequency and then transmits each recorded burst
// when the TSC reaches its stored value plus the delta.
func (m *Middlebox) startReplay(atWall sim.Time) {
	if len(m.bursts) == 0 || m.replaying {
		return
	}
	m.replaying = true
	m.replaysRun++
	now := m.eng.Now()

	// Software-visible arithmetic: wait = target wall − current wall;
	// target TSC for the first burst = current TSC + wait-in-cycles.
	wait := atWall - m.cfg.Wall.Wall(now)
	if wait < 0 {
		wait = 0
	}
	startTSC := m.cfg.TSC.Read(now) + m.cfg.TSC.CyclesIn(wait)
	delta := startTSC - m.bursts[0].tsc

	// The replay loop arms with scheduling slop; every burst in this
	// run shifts by the same sampled amount.
	var slop sim.Duration
	if m.cfg.ReplayStartJitter != nil {
		if slop = m.cfg.ReplayStartJitter.Sample(m.rng); slop < 0 {
			slop = 0
		}
	}

	m.replayBursts = m.bursts
	m.replayTimes = make([]sim.Time, len(m.bursts))
	m.replayNext = 0
	m.paused = false

	last := now
	for i, b := range m.bursts {
		ideal := m.cfg.TSC.SimTimeAt(b.tsc + delta)
		at := ideal + slop
		if m.cfg.Stall != nil {
			at = m.cfg.Stall.Adjust(at)
		}
		if at < last {
			// The busy-poll loop transmits bursts in order; a late
			// burst delays its successors.
			at = last
		}
		last = at
		m.replayTimes[i] = at
		if m.ob != nil {
			// Schedule slip: how far jitter, stall windows and in-order
			// emission pushed this burst off its TSC-ideal instant.
			m.ob.slip.Observe(int64(at - ideal))
		}
	}
	m.replayBase = m.act.Reserve(len(m.bursts) + 1)
	m.armReplay()
}

// armReplay arms the replay cursor's one event: burst replayNext at
// its replayTimes entry or, once every burst is out, the end of the
// replay at the last burst's instant. Burst i takes lane sequence
// number replayBase+i and the end replayBase+len(bursts) — the keys an
// eager schedule of every burst up front would have used. Those keys
// increase and the times never decrease, so burst i+1, armed when
// burst i fires, is queued before any event that pops after burst i:
// the engine pops exactly the eager schedule's sequence, while its
// queue holds one replay event instead of the whole recording.
func (m *Middlebox) armReplay() {
	i, n := m.replayNext, len(m.replayTimes)
	if i < n {
		m.replayEv = m.act.ScheduleSeq(m.replayTimes[i], m.replayBase+uint64(i), m.emitFn)
		return
	}
	m.replayEv = m.act.ScheduleSeq(m.replayTimes[n-1], m.replayBase+uint64(n), m.endFn)
}

// emitBurst transmits the burst under the replay cursor and arms the
// next one. Arming comes first, so a pause raised while the burst is
// handed to the NIC cancels the successor.
func (m *Middlebox) emitBurst() {
	i := m.replayNext
	m.replayNext = i + 1
	m.armReplay()
	pkts := m.replayBursts[i].pkts
	m.cfg.Out.SendBurst(pkts)
	m.replayedPkts += uint64(len(pkts))
	if ob := m.ob; ob != nil {
		ob.replayed.Add(int64(len(pkts)))
		if ob.tr != nil {
			at := m.replayTimes[i]
			for _, p := range pkts {
				ob.tr.Instant(p.Tag, obs.StageReplay, ob.track, at)
			}
		}
	}
}

func (m *Middlebox) endReplay() { m.replaying = false }

// pauseReplay suspends the current replay: bursts not yet transmitted
// are held until ResumeReplay (the breakpointing primitive).
func (m *Middlebox) pauseReplay() {
	if !m.replaying || m.paused {
		return
	}
	m.paused = true
	if ob := m.ob; ob != nil {
		ob.pauses.Inc()
		if ob.tr != nil {
			ob.tr.Mark("replay:pause", ob.track, m.eng.Now(), nil)
		}
	}
	m.replayEv.Cancel()
}

// resumeReplay continues a paused replay at the given wall-clock time;
// the remaining bursts keep their recorded relative spacing.
func (m *Middlebox) resumeReplay(atWall sim.Time) {
	if !m.replaying || !m.paused {
		return
	}
	m.paused = false
	if ob := m.ob; ob != nil {
		ob.resumes.Inc()
		if ob.tr != nil {
			ob.tr.Mark("replay:resume", ob.track, m.eng.Now(), nil)
		}
	}
	next := m.replayNext
	if next >= len(m.replayTimes) {
		m.replaying = false
		return
	}
	resumeAt := m.cfg.Wall.SimTimeFor(atWall)
	if resumeAt < m.eng.Now() {
		resumeAt = m.eng.Now()
	}
	shift := resumeAt - m.replayTimes[next]
	if shift < 0 {
		shift = 0
	}
	last := resumeAt
	for i := next; i < len(m.replayTimes); i++ {
		at := m.replayTimes[i] + shift
		if m.cfg.Stall != nil {
			at = m.cfg.Stall.Adjust(at)
		}
		if at < last {
			at = last
		}
		last = at
		m.replayTimes[i] = at
	}
	// A fresh block: burst i takes replayBase+i, i >= next.
	m.replayBase = m.act.Reserve(len(m.replayTimes)-next+1) - uint64(next)
	m.armReplay()
}

// Paused reports whether the current replay is suspended.
func (m *Middlebox) Paused() bool { return m.paused }

// Status reports the middlebox state over the control plane.
func (m *Middlebox) Status() control.Status {
	return control.Status{Recorded: m.recorded, Replaying: m.replaying}
}

// Recorded returns the number of packets in the replay buffer.
func (m *Middlebox) Recorded() uint64 { return m.recorded }

// RecordedBursts returns the number of bursts in the replay buffer.
func (m *Middlebox) RecordedBursts() int { return len(m.bursts) }

// Truncated reports whether the recording hit the buffer bound.
func (m *Middlebox) Truncated() bool { return m.truncated }

// ReplaysRun returns how many replays have been started.
func (m *Middlebox) ReplaysRun() uint64 { return m.replaysRun }

// ReplayedPackets returns the number of packets re-transmitted across
// all replays.
func (m *Middlebox) ReplayedPackets() uint64 { return m.replayedPkts }

// BurstInfo is a read-only view of one recorded burst, for debugging
// tools (backtracing) and external analysis.
type BurstInfo struct {
	// TSC is the counter value at the burst's original transmission.
	TSC uint64
	// Packets are the burst's frames in transmission order (shared,
	// not copied — treat as immutable).
	Packets []*packet.Packet
}

// Recording returns a view of the replay buffer in burst order.
func (m *Middlebox) Recording() []BurstInfo {
	out := make([]BurstInfo, len(m.bursts))
	for i, b := range m.bursts {
		out[i] = BurstInfo{TSC: b.tsc, Packets: b.pkts}
	}
	return out
}
