package core

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/dpdk"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rig is a minimal generator → middlebox → recorder pipeline on perfect
// hardware.
type rig struct {
	eng  *sim.Engine
	genQ *nic.Queue
	mb   *Middlebox
	rec  *Recorder
	bus  *control.Bus
}

func newRig(seed int64, cfgMut func(*Config)) *rig {
	e := sim.NewEngine(seed)
	perfect := nic.Profile{Name: "perfect", LineRateBps: packet.Gbps(100)}

	genN := nic.New(e, perfect, "gen")
	genQ := genN.NewQueue(1 << 20)

	mbN := nic.New(e, perfect, "mb")
	mbQ := mbN.NewQueue(1 << 20)

	cfg := Config{
		ID:   1,
		TSC:  clock.NewTSC(2.5e9, 0, 0),
		Wall: clock.NewSystemClock(0),
		Out:  mbQ,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	mb := New(e, cfg)
	genQ.Connect(mb, 0)

	rec := NewRecorder(e, "A", nic.PerfectTimestamper{}, true)
	mbQ.Connect(rec, 0)

	return &rig{eng: e, genQ: genQ, mb: mb, rec: rec, bus: control.NewBus(e, nil)}
}

// generate streams count CBR packets at 40G through the rig.
func (r *rig) generate(count int) {
	gen.StartCBR(r.eng, r.genQ, gen.CBRConfig{
		RateBps:  packet.Gbps(40),
		FrameLen: 1400,
		Count:    count,
		StartAt:  r.eng.Now(),
		Flow: packet.FiveTuple{
			Src: packet.IPForNode(1), Dst: packet.IPForNode(2),
			SrcPort: 7000, DstPort: 7001, Proto: packet.ProtoUDP,
		},
	})
}

func TestTransparentForwarding(t *testing.T) {
	r := newRig(1, nil)
	r.generate(2000)
	r.eng.Run()

	tr := r.rec.Trace()
	if tr.Len() != 2000 {
		t.Fatalf("forwarded %d packets, want 2000", tr.Len())
	}
	for i, p := range tr.Packets {
		if p.Tag.Seq != uint64(i) {
			t.Fatalf("reordered at %d: seq %d", i, p.Tag.Seq)
		}
		if p.Tag.Replayer != 1 {
			t.Fatalf("packet %d not stamped with replayer id: %v", i, p.Tag)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordingCapturesBursts(t *testing.T) {
	r := newRig(2, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(2000)
	r.eng.Run()

	if r.mb.Recorded() != 2000 {
		t.Fatalf("recorded %d packets, want 2000", r.mb.Recorded())
	}
	if r.mb.RecordedBursts() == 0 {
		t.Fatal("no bursts recorded")
	}
	// Bursts respect the DPDK limit.
	for _, b := range r.mb.bursts {
		if len(b.pkts) == 0 || len(b.pkts) > nic.BurstSize {
			t.Fatalf("burst size %d out of range", len(b.pkts))
		}
	}
	// TSC stamps strictly increase burst to burst.
	for i := 1; i < len(r.mb.bursts); i++ {
		if r.mb.bursts[i].tsc <= r.mb.bursts[i-1].tsc {
			t.Fatalf("burst TSC not increasing at %d", i)
		}
	}
	if r.mb.Status().Recorded != 2000 {
		t.Fatalf("status: %v", r.mb.Status())
	}
}

func TestRecordingZeroCopy(t *testing.T) {
	r := newRig(3, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(100)
	r.eng.Run()
	// The recorded packets are the same objects the recorder saw: no
	// copies were made (paper §4: recording holds forwarded packets in
	// memory "without making a copy").
	seen := map[*packet.Packet]bool{}
	for _, p := range r.rec.Trace().Packets {
		seen[p] = true
	}
	for _, b := range r.mb.bursts {
		for _, p := range b.pkts {
			if !seen[p] {
				t.Fatal("recorded packet is not the forwarded object (copied?)")
			}
		}
	}
}

func TestStopRecordHonoursWindow(t *testing.T) {
	r := newRig(4, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(2000) // ~568µs of traffic at 40G
	// Stop recording after ~the first half.
	r.bus.Send(r.mb, control.StopRecord{At: 284 * 1000})
	r.eng.Run()
	got := r.mb.Recorded()
	if got == 0 || got >= 2000 {
		t.Fatalf("recorded %d packets; want a strict subset", got)
	}
	// Forwarding continued: the recorder saw everything.
	if r.rec.Trace().Len() != 2000 {
		t.Fatalf("recorder saw %d, want 2000 (middlebox must stay transparent)", r.rec.Trace().Len())
	}
}

func TestRecordBufferBound(t *testing.T) {
	r := newRig(5, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0, MaxPackets: 512})
	r.generate(2000)
	r.eng.Run()
	if r.mb.Recorded() > 512 {
		t.Fatalf("recorded %d packets, bound was 512", r.mb.Recorded())
	}
	if !r.mb.Truncated() {
		t.Fatal("truncation not reported")
	}
}

// runReplay triggers a replay and captures it as a named trial.
func runReplay(r *rig, name string) *trace.Trace {
	r.rec.StartTrial(name)
	start := r.mb.cfg.Wall.Wall(r.eng.Now()) + 10*sim.Millisecond
	r.bus.Send(r.mb, control.StartReplay{At: start})
	r.eng.Run()
	return r.rec.Trace()
}

func TestReplayPerfectConsistency(t *testing.T) {
	// DESIGN.md invariant: with a zero-jitter profile, replays are
	// bit-identical — κ = 1 between any two replay trials.
	r := newRig(6, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(5000)
	r.eng.Run()
	r.bus.Send(r.mb, control.StopRecord{At: r.mb.cfg.Wall.Wall(r.eng.Now())})
	r.eng.Run()

	a := runReplay(r, "A").Normalize()
	b := runReplay(r, "B").Normalize()
	if a.Len() != 5000 || b.Len() != 5000 {
		t.Fatalf("replay lengths %d/%d, want 5000", a.Len(), b.Len())
	}
	res, err := metrics.Compare(a, b, metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kappa != 1 || res.U != 0 || res.O != 0 || res.L != 0 || res.I != 0 {
		t.Fatalf("perfect rig not perfectly consistent: %v", res)
	}
	if r.mb.ReplaysRun() != 2 {
		t.Fatalf("ReplaysRun = %d", r.mb.ReplaysRun())
	}
	if r.mb.ReplayedPackets() != 10000 {
		t.Fatalf("ReplayedPackets = %d", r.mb.ReplayedPackets())
	}
}

func TestReplayPreservesRecordedIATs(t *testing.T) {
	// With perfect hardware, replayed inter-burst spacing equals the
	// recorded spacing: the replay reproduces the recorded timeline
	// shifted by a constant.
	r := newRig(7, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(1000)
	r.eng.Run()

	original := r.rec.Trace().Normalize()
	replayA := runReplay(r, "A").Normalize()
	if replayA.Len() != original.Len() {
		t.Fatalf("replay %d packets, original %d", replayA.Len(), original.Len())
	}
	// Burst-level pacing is identical; intra-burst spacing is always
	// line rate in both. Compare full IAT sequences.
	oi, ri := original.IATs(), replayA.IATs()
	for i := range oi {
		if oi[i] != ri[i] {
			t.Fatalf("IAT %d differs: recorded %v, replayed %v", i, oi[i], ri[i])
		}
	}
}

func TestReplayWaitsForCommandedStart(t *testing.T) {
	r := newRig(8, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(500)
	r.eng.Run()

	recordedEnd := r.eng.Now()
	r.rec.StartTrial("A")
	start := r.mb.cfg.Wall.Wall(recordedEnd) + 50*sim.Millisecond
	r.bus.Send(r.mb, control.StartReplay{At: start})
	r.eng.Run()
	tr := r.rec.Trace()
	if tr.Len() != 500 {
		t.Fatalf("replayed %d packets", tr.Len())
	}
	if tr.Start() < start {
		t.Fatalf("first replayed packet at %v, before commanded start %v", tr.Start(), start)
	}
	if tr.Start() > start+sim.Millisecond {
		t.Fatalf("first replayed packet at %v, far after commanded start %v", tr.Start(), start)
	}
}

func TestReplayWithoutRecordingIsNoop(t *testing.T) {
	r := newRig(9, nil)
	r.bus.Send(r.mb, control.StartReplay{At: sim.Second})
	r.eng.Run()
	if r.mb.ReplaysRun() != 0 {
		t.Fatal("replay started with empty buffer")
	}
}

func TestReplayStartJitterShiftsWholeRun(t *testing.T) {
	r := newRig(10, func(c *Config) {
		c.ReplayStartJitter = sim.Constant{V: 123456}
	})
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(500)
	r.eng.Run()

	a := runReplay(r, "A")
	// The commanded start is known: the whole run shifts by the jitter.
	// Compare against a no-jitter rig with identical history.
	r2 := newRig(10, nil)
	r2.bus.Send(r2.mb, control.StartRecord{At: 0})
	r2.generate(500)
	r2.eng.Run()
	b := runReplay(r2, "B")

	diff := a.Start() - b.Start()
	if diff != 123456 {
		t.Fatalf("start jitter shifted run by %v, want 123456", diff)
	}
	// And the shift is constant: normalized traces are identical.
	res, err := metrics.Compare(a.Normalize(), b.Normalize(), metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kappa != 1 {
		t.Fatalf("whole-run shift should normalize away: %v", res)
	}
}

func TestStallDelaysReplayBursts(t *testing.T) {
	r := newRig(11, func(c *Config) {
		// One long stall covering the replay start window.
		c.Stall = sim.NewStallTimeline(sim.NewEngine(99).Rand("s"),
			sim.Constant{V: 9 * sim.Millisecond}, sim.Constant{V: 40 * sim.Millisecond})
	})
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(200)
	r.eng.Run()
	tr := runReplay(r, "A") // commanded at now+10ms, inside the stall
	if tr.Len() != 200 {
		t.Fatalf("replayed %d packets", tr.Len())
	}
	if tr.Start() < 49*sim.Millisecond {
		t.Fatalf("replay started at %v despite stall until 49ms", tr.Start())
	}
}

func TestRecorderDataOnlyFilter(t *testing.T) {
	e := sim.NewEngine(12)
	rec := NewRecorder(e, "A", nic.PerfectTimestamper{}, true)
	rec.Receive(&packet.Packet{Kind: packet.KindData, FrameLen: 100}, 10)
	rec.Receive(&packet.Packet{Kind: packet.KindNoise, FrameLen: 100}, 20)
	rec.Receive(&packet.Packet{Kind: packet.KindInvalid, FrameLen: 100}, 30)
	if rec.Trace().Len() != 1 {
		t.Fatalf("captured %d, want 1", rec.Trace().Len())
	}
	if rec.Received() != 3 || rec.Discarded() != 2 {
		t.Fatalf("received=%d discarded=%d", rec.Received(), rec.Discarded())
	}
}

func TestRecorderMonotonizesTimestamps(t *testing.T) {
	e := sim.NewEngine(13)
	// A timestamper with huge negative jitter would invert stamps.
	ts := nic.ConnectXTimestamper{PeriodNs: 1, ConversionJitter: sim.Uniform{Lo: -500, Hi: 500}}
	rec := NewRecorder(e, "A", ts, false)
	for i := sim.Time(0); i < 100; i++ {
		rec.Receive(&packet.Packet{Kind: packet.KindData, FrameLen: 100}, i*100)
	}
	if err := rec.Trace().Validate(); err != nil {
		t.Fatalf("recorder emitted non-monotone trace: %v", err)
	}
}

func TestStartTrialResets(t *testing.T) {
	e := sim.NewEngine(14)
	rec := NewRecorder(e, "A", nil, false)
	rec.Receive(&packet.Packet{Kind: packet.KindData, FrameLen: 64}, 5)
	prev := rec.StartTrial("B")
	if prev.Name != "A" || prev.Len() != 1 {
		t.Fatalf("previous trial wrong: %v", prev)
	}
	if rec.Trace().Name != "B" || rec.Trace().Len() != 0 {
		t.Fatalf("new trial wrong: %v", rec.Trace())
	}
}

func TestIncompleteConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete config accepted")
		}
	}()
	New(sim.NewEngine(1), Config{})
}

func TestSecondReplayIgnoredWhileReplaying(t *testing.T) {
	r := newRig(15, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(500)
	r.eng.Run()
	start := r.mb.cfg.Wall.Wall(r.eng.Now()) + 10*sim.Millisecond
	r.bus.Send(r.mb, control.StartReplay{At: start})
	r.bus.Send(r.mb, control.StartReplay{At: start}) // while arming
	r.eng.Run()
	if r.mb.ReplaysRun() != 1 {
		t.Fatalf("ReplaysRun = %d, want 1 (second command ignored)", r.mb.ReplaysRun())
	}
}

func TestRollingRecordingKeepsLatestWindow(t *testing.T) {
	r := newRig(16, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0, MaxPackets: 512, Rolling: true})
	r.generate(3000)
	r.eng.Run()
	if r.mb.Truncated() {
		t.Fatal("rolling mode must not report truncation")
	}
	got := r.mb.Recorded()
	if got > 512 || got < 512-uint64(nic.BurstSize) {
		t.Fatalf("rolling buffer holds %d packets, want ~512", got)
	}
	// The buffer must hold the most recent packets, not the earliest.
	first := r.mb.bursts[0].pkts[0].Tag.Seq
	if first < 2000 {
		t.Fatalf("rolling buffer kept old packet seq %d", first)
	}
	last := r.mb.bursts[len(r.mb.bursts)-1]
	if last.pkts[len(last.pkts)-1].Tag.Seq != 2999 {
		t.Fatalf("rolling buffer missing newest packet: last seq %d",
			last.pkts[len(last.pkts)-1].Tag.Seq)
	}
}

func TestRollingRecordingReplaysWindow(t *testing.T) {
	r := newRig(17, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0, MaxPackets: 256, Rolling: true})
	r.generate(2000)
	r.eng.Run()
	tr := runReplay(r, "A")
	if uint64(tr.Len()) != r.mb.Recorded() {
		t.Fatalf("replayed %d, recorded %d", tr.Len(), r.mb.Recorded())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInBandControlDrivesRecordAndReplay(t *testing.T) {
	// The §5 resource-saving configuration: control frames ride the
	// experimental data plane. They must trigger commands and must NOT
	// be forwarded or recorded.
	r := newRig(18, nil)
	send := func(cmd control.Command) {
		p := control.InBandPacket(cmd, packet.IPForNode(9), packet.IPForNode(1))
		r.genQ.SendBurst([]*packet.Packet{p})
	}
	send(control.StartRecord{At: 0})
	r.generate(1000)
	r.eng.Run()
	if r.mb.Recorded() != 1000 {
		t.Fatalf("recorded %d, want 1000 (control frame must not be recorded)", r.mb.Recorded())
	}
	if r.rec.Trace().Len() != 1000 {
		t.Fatalf("recorder saw %d, want 1000 (control frame must not be forwarded)", r.rec.Trace().Len())
	}
	r.rec.StartTrial("A")
	send(control.StartReplay{At: r.mb.cfg.Wall.Wall(r.eng.Now()) + 10*sim.Millisecond})
	r.eng.Run()
	if r.rec.Trace().Len() != 1000 {
		t.Fatalf("in-band replay delivered %d packets", r.rec.Trace().Len())
	}
}

// watchReplay wraps the replay cursor's emission callback: it checks
// that every burst fires at its replayTimes entry, logs the burst
// index, then runs after (if non-nil) once the burst is out.
func watchReplay(t *testing.T, r *rig, after func(i int)) *[]int {
	t.Helper()
	var emitted []int
	emit := r.mb.emitFn
	r.mb.emitFn = func() {
		i := r.mb.replayNext
		if now := r.eng.Now(); now != r.mb.replayTimes[i] {
			t.Errorf("burst %d emitted at %v, scheduled for %v", i, now, r.mb.replayTimes[i])
		}
		emitted = append(emitted, i)
		emit()
		if after != nil {
			after(i)
		}
	}
	return &emitted
}

// TestPauseResumeReplay pauses replays at the replay cursor's edge
// cases and resumes them 50ms later: every burst must be emitted
// exactly once, in order, at its (possibly resume-shifted) replayTimes
// entry, and every packet must arrive, in order.
func TestPauseResumeReplay(t *testing.T) {
	const pkts = 2000 // ~568µs of traffic
	cases := []struct {
		name string
		// stall adds periodic vCPU stalls during the replay, which clamp
		// runs of bursts to one instant.
		stall bool
		// pauseBefore pauses as the replay starts, before its first
		// burst; pauseWall pauses by wall clock, that long after the
		// commanded start; pauseAfter pauses synchronously right after
		// burst i is handed to the NIC.
		pauseBefore bool
		pauseWall   sim.Duration
		pauseAfter  func(m *Middlebox, i int) bool
		pauses      int
		// gap: a pause separates two bursts, so the capture shows it.
		gap bool
	}{
		{name: "mid-replay", pauseWall: 280 * sim.Microsecond, pauses: 1, gap: true},
		{name: "before-first-burst", pauseBefore: true, pauses: 1},
		{name: "between-clamped-bursts", stall: true, pauses: 1, gap: true,
			pauseAfter: func() func(m *Middlebox, i int) bool {
				done := false
				return func(m *Middlebox, i int) bool {
					if done || i+1 >= len(m.replayTimes) || m.replayTimes[i+1] != m.replayTimes[i] {
						return false
					}
					done = true
					return true
				}
			}()},
		{name: "before-last-burst", pauses: 1, gap: true,
			pauseAfter: func(m *Middlebox, i int) bool { return i == len(m.replayTimes)-2 }},
		{name: "after-last-burst", pauses: 1,
			pauseAfter: func(m *Middlebox, i int) bool { return i == len(m.replayTimes)-1 }},
		{name: "twice", pauses: 2, gap: true,
			pauseAfter: func(m *Middlebox, i int) bool { return i == 3 || i == 17 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(20, func(c *Config) {
				if tc.stall {
					c.Stall = sim.NewStallTimeline(sim.NewEngine(98).Rand("s"),
						sim.Constant{V: 150 * sim.Microsecond}, sim.Constant{V: 60 * sim.Microsecond})
				}
			})
			emitted := watchReplay(t, r, func(i int) {
				if tc.pauseAfter != nil && tc.pauseAfter(r.mb, i) {
					r.mb.HandleCommand(control.PauseReplay{}, r.eng.Now())
				}
			})
			r.bus.Send(r.mb, control.StartRecord{At: 0})
			r.generate(pkts)
			r.eng.Run()
			bursts := r.mb.RecordedBursts()

			r.rec.StartTrial("A")
			start := r.mb.cfg.Wall.Wall(r.eng.Now()) + 10*sim.Millisecond
			if tc.pauseBefore {
				r.mb.HandleCommand(control.StartReplay{At: start}, r.eng.Now())
				r.mb.HandleCommand(control.PauseReplay{}, r.eng.Now())
			} else {
				r.bus.Send(r.mb, control.StartReplay{At: start})
			}
			if tc.pauseWall > 0 {
				r.eng.Schedule(r.mb.cfg.Wall.SimTimeFor(start+tc.pauseWall), func() {
					r.mb.HandleCommand(control.PauseReplay{}, r.eng.Now())
				})
			}
			r.eng.Run()
			pauses := 0
			for r.mb.Paused() {
				pauses++
				if got := r.rec.Trace().Len(); got >= pkts && tc.gap {
					t.Fatalf("pause %d: all %d packets delivered before resume", pauses, got)
				}
				// Resume 50ms later; the rest must follow with the
				// recorded spacing preserved after the gap.
				resume := r.mb.cfg.Wall.Wall(r.eng.Now()) + 50*sim.Millisecond
				r.bus.Send(r.mb, control.ResumeReplay{At: resume})
				r.eng.Run()
			}
			if pauses != tc.pauses {
				t.Fatalf("paused %d times, want %d", pauses, tc.pauses)
			}
			if r.mb.Status().Replaying {
				t.Fatal("replay still running after the queue drained")
			}
			if len(*emitted) != bursts {
				t.Fatalf("emitted %d bursts, recorded %d", len(*emitted), bursts)
			}
			for i, b := range *emitted {
				if b != i {
					t.Fatalf("emission %d was burst %d: bursts skipped, repeated or reordered", i, b)
				}
			}
			tr := r.rec.Trace()
			if tr.Len() != pkts {
				t.Fatalf("after resume delivered %d of %d", tr.Len(), pkts)
			}
			for i, p := range tr.Packets {
				if p.Tag.Seq != uint64(i) {
					t.Fatalf("order broken at %d after pause/resume", i)
				}
			}
			maxGap := sim.Duration(0)
			for i := 1; i < tr.Len(); i++ {
				if g := tr.Times[i] - tr.Times[i-1]; g > maxGap {
					maxGap = g
				}
			}
			if tc.gap && maxGap < 40*sim.Millisecond {
				t.Fatalf("pause gap not visible: max IAT %v", maxGap)
			}
		})
	}
}

// TestReplayQueueStaysBounded: the replay cursor keeps one replay event
// queued, so the engine's queue during a replay is bounded by the
// packets in flight, not by the recording's length.
func TestReplayQueueStaysBounded(t *testing.T) {
	// A burst's per-packet deliveries plus a handful of component
	// events; the recordings below hold ~40 and ~400 bursts.
	const bound = 2*nic.BurstSize + 16
	for _, pkts := range []int{2000, 20000} {
		r := newRig(24, nil)
		peak := 0
		watchReplay(t, r, func(int) {
			if n := r.eng.PendingRaw(); n > peak {
				peak = n
			}
		})
		r.bus.Send(r.mb, control.StartRecord{At: 0})
		r.generate(pkts)
		r.eng.Run()
		if tr := runReplay(r, "A"); tr.Len() != pkts {
			t.Fatalf("%d packets: replay delivered %d", pkts, tr.Len())
		}
		t.Logf("%d packets (%d bursts): peak queue %d during replay", pkts, r.mb.RecordedBursts(), peak)
		if peak > bound {
			t.Fatalf("%d packets: queue peaked at %d during replay, want <= %d", pkts, peak, bound)
		}
	}
}

func TestPauseWithoutReplayIsNoop(t *testing.T) {
	r := newRig(21, nil)
	r.mb.HandleCommand(control.PauseReplay{}, 0)
	r.mb.HandleCommand(control.ResumeReplay{At: sim.Second}, 0)
	r.eng.Run()
	if r.mb.Paused() {
		t.Fatal("paused with no replay in progress")
	}
}

func TestDoublePauseAndResumeIdempotent(t *testing.T) {
	r := newRig(22, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(500)
	r.eng.Run()
	r.rec.StartTrial("A")
	start := r.mb.cfg.Wall.Wall(r.eng.Now()) + 5*sim.Millisecond
	r.bus.Send(r.mb, control.StartReplay{At: start})
	r.eng.Schedule(r.mb.cfg.Wall.SimTimeFor(start+20*sim.Microsecond), func() {
		r.mb.HandleCommand(control.PauseReplay{}, r.eng.Now())
		r.mb.HandleCommand(control.PauseReplay{}, r.eng.Now()) // double pause
	})
	r.eng.Run()
	resume := r.mb.cfg.Wall.Wall(r.eng.Now()) + sim.Millisecond
	r.bus.Send(r.mb, control.ResumeReplay{At: resume})
	r.eng.Run()
	r.bus.Send(r.mb, control.ResumeReplay{At: resume}) // double resume
	r.eng.Run()
	if r.rec.Trace().Len() != 500 {
		t.Fatalf("delivered %d of 500", r.rec.Trace().Len())
	}
}

func TestBreakpointPausesReplay(t *testing.T) {
	// The full debugging loop: a watcher breakpoint on the recorder
	// link pauses the replay the moment the packet of interest passes.
	r := newRig(23, nil)
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(2000)
	r.eng.Run()

	r.rec.StartTrial("A")
	start := r.mb.cfg.Wall.Wall(r.eng.Now()) + 5*sim.Millisecond
	r.bus.Send(r.mb, control.StartReplay{At: start})
	// Re-wire: middlebox out → breakpoint tap → recorder.
	// (The tap forwards transparently and fires once.)
	fired := false
	r.mb.cfg.Out.Connect(endpointFunc(func(p *packet.Packet, at sim.Time) {
		if !fired && p.Tag.Seq == 1000 {
			fired = true
			r.mb.HandleCommand(control.PauseReplay{}, at)
		}
		r.rec.Receive(p, at)
	}), 0)
	r.eng.Run()
	if !fired {
		t.Fatal("breakpoint never fired")
	}
	if !r.mb.Paused() {
		t.Fatal("replay not paused at breakpoint")
	}
	got := r.rec.Trace().Len()
	if got < 1001 || got >= 2000 {
		t.Fatalf("delivered %d packets at breakpoint; want just past 1000", got)
	}
}

type endpointFunc func(*packet.Packet, sim.Time)

func (f endpointFunc) Receive(p *packet.Packet, t sim.Time) { f(p, t) }

func TestChainedMiddleboxes(t *testing.T) {
	// Choir is in-situ on links; two middleboxes can sit in series on
	// the same path (gen → mb1 → mb2 → recorder), both recording the
	// same window, and either can replay it. This is the "middleboxes
	// on links between nodes" generality of §4.
	e := sim.NewEngine(30)
	perfect := nic.Profile{Name: "perfect", LineRateBps: packet.Gbps(100)}

	genQ := nic.New(e, perfect, "gen").NewQueue(0)
	mb1Q := nic.New(e, perfect, "mb1").NewQueue(0)
	mb2Q := nic.New(e, perfect, "mb2").NewQueue(0)

	mb1 := New(e, Config{ID: 1, TSC: clock.NewTSC(2.5e9, 0, 0), Wall: clock.NewSystemClock(0), Out: mb1Q})
	mb2 := New(e, Config{ID: 2, TSC: clock.NewTSC(2.5e9, 0, 100), Wall: clock.NewSystemClock(0), Out: mb2Q})
	genQ.Connect(mb1, 0)
	mb1Q.Connect(mb2, 0)
	rec := NewRecorder(e, "A", nic.PerfectTimestamper{}, true)
	mb2Q.Connect(rec, 0)

	bus := control.NewBus(e, nil)
	bus.Send(mb1, control.StartRecord{At: 0})
	bus.Send(mb2, control.StartRecord{At: 0})
	gen.StartCBR(e, genQ, gen.CBRConfig{
		RateBps: packet.Gbps(40), FrameLen: 1400, Count: 1500,
		Flow: packet.FiveTuple{Src: packet.IPForNode(1), Dst: packet.IPForNode(2), Proto: packet.ProtoUDP},
	})
	e.Run()

	if mb1.Recorded() != 1500 || mb2.Recorded() != 1500 {
		t.Fatalf("chain recorded %d/%d, want 1500/1500", mb1.Recorded(), mb2.Recorded())
	}
	if rec.Trace().Len() != 1500 {
		t.Fatalf("end of chain saw %d packets", rec.Trace().Len())
	}
	// The downstream middlebox stamps the packets last: the recorder
	// sees replayer id 2.
	for _, p := range rec.Trace().Packets {
		if p.Tag.Replayer != 2 {
			t.Fatalf("tag %v, want replayer 2 (last hop stamps)", p.Tag)
		}
	}

	// Replay from the downstream box: its recording includes the whole
	// upstream path's shaping.
	rec.StartTrial("B")
	bus.Send(mb2, control.StartReplay{At: e.Now() + 10*sim.Millisecond})
	e.Run()
	if rec.Trace().Len() != 1500 {
		t.Fatalf("chained replay delivered %d packets", rec.Trace().Len())
	}
	if err := rec.Trace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMemPoolPressureStarvesRX(t *testing.T) {
	// §5: "The primary restriction is RAM, which only controls how
	// large the replay buffer is." With a pool holding only 1000
	// buffers, recording 2000 packets pins the pool and starves RX:
	// frames are lost at receive, and the recording cannot exceed the
	// pool.
	pool := dpdk.NewMemPool("replayer", 1000*dpdk.MbufSize)
	r := newRig(31, func(c *Config) { c.Pool = pool })
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(2000)
	r.eng.Run()

	if r.mb.RxDropsNoMbuf() == 0 {
		t.Fatal("pool exhaustion produced no RX drops")
	}
	if r.mb.Recorded() > 1000 {
		t.Fatalf("recorded %d packets with a 1000-buffer pool", r.mb.Recorded())
	}
	if pool.AllocFailures() == 0 {
		t.Fatal("pool reported no allocation failures")
	}
	// Forwarded = received = recorded + dropped-before-recording... at
	// minimum, the recorder saw fewer packets than were generated.
	if got := r.rec.Trace().Len(); got >= 2000 {
		t.Fatalf("recorder saw %d, expected losses under memory pressure", got)
	}
	if got := uint64(r.rec.Trace().Len()) + r.mb.RxDropsNoMbuf(); got != 2000 {
		t.Fatalf("delivered %d + rx-dropped %d != 2000", r.rec.Trace().Len(), r.mb.RxDropsNoMbuf())
	}
}

func TestMemPoolPlainForwardingRecycles(t *testing.T) {
	// Without recording, the pool cycles: forwarding 5000 packets
	// through a 256-buffer pool loses nothing.
	pool := dpdk.NewMemPool("replayer", 256*dpdk.MbufSize)
	r := newRig(32, func(c *Config) { c.Pool = pool })
	r.generate(5000)
	r.eng.Run()
	if r.mb.RxDropsNoMbuf() != 0 {
		t.Fatalf("plain forwarding dropped %d frames", r.mb.RxDropsNoMbuf())
	}
	if r.rec.Trace().Len() != 5000 {
		t.Fatalf("recorder saw %d", r.rec.Trace().Len())
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool leaked %d buffers", pool.InUse())
	}
}

func TestMemPoolReleasedOnReRecord(t *testing.T) {
	pool := dpdk.NewMemPool("replayer", 4096*dpdk.MbufSize)
	r := newRig(33, func(c *Config) { c.Pool = pool })
	r.bus.Send(r.mb, control.StartRecord{At: 0})
	r.generate(1000)
	r.eng.Run()
	if pool.InUse() != 1000 {
		t.Fatalf("recording pins %d buffers, want 1000", pool.InUse())
	}
	// A fresh recording releases the old buffers.
	r.bus.Send(r.mb, control.StartRecord{At: r.mb.cfg.Wall.Wall(r.eng.Now())})
	r.generate(500)
	r.eng.Run()
	if pool.InUse() != 500 {
		t.Fatalf("after re-record pool pins %d, want 500", pool.InUse())
	}
}
