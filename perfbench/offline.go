package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/consistency"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// streamWindow is cmd/choirstream's default window.
const streamWindow = 10 * sim.Millisecond

// offlinePair scores one large pair of full-frame dual-replayer
// captures the two ways a user does offline: the cmd/consistency path
// (consistency.Report) and the cmd/choirstream path (two
// pcap.OpenStream sources into stream.Run, windows discarded). The
// dual-replayer pair moves about half its packets as bursts, so the
// LIS and edit-script steps get real work; nothing is simulated in the
// timed part.
//
// Set-up records the pair with experiments.Run on LocalDual and writes
// both captures. An operation scores the pair both ways.
func offlinePair(cfg config) (*outcome, error) {
	out := newOutcome()
	pathA := filepath.Join(cfg.dir, "A.pcap")
	pathB := filepath.Join(cfg.dir, "B.pcap")
	env := testbed.LocalDual()
	trial := experiments.TrialConfig{Packets: cfg.size.pairPackets, Runs: 2, Seed: cfg.seed, Workers: 1}
	var rec *experiments.RunResult
	for i := 0; i < cfg.size.setupReps; i++ {
		t := time.Now()
		var err error
		if rec, err = writePair(env, trial, pathA, pathB); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t).Seconds())
	}

	// Untimed references: the tagged packet counts and the batch
	// per-window scores every streaming run must equal.
	ta, err := pcap.ReadAnyFile(pathA)
	if err != nil {
		return nil, err
	}
	tb, err := pcap.ReadAnyFile(pathB)
	if err != nil {
		return nil, err
	}
	da, db := ta.DataOnly(), tb.DataOnly()
	wantWindows, err := metrics.CompareWindowed(da, db, streamWindow, metrics.Options{})
	if err != nil {
		return nil, err
	}
	p := &pair{
		a: consistency.Input{Path: pathA, Name: "A.pcap"}, b: consistency.Input{Path: pathB, Name: "B.pcap"},
		pkts: float64(da.Len() + db.Len()), windows: wantWindows, report: cfg.expect,
	}

	if cfg.trace {
		return offlineTraced(cfg, p, env, trial, rec, out)
	}
	var rates, opMs, reportRates, streamRates []float64
	for deadline := time.Now().Add(cfg.seconds); ; {
		tRep, tStr, streamPkts := p.score(out, nil)
		op := tRep + tStr
		rates = append(rates, (p.pkts+streamPkts)/op.Seconds())
		opMs = append(opMs, msOf(op))
		reportRates = append(reportRates, p.pkts/tRep.Seconds())
		streamRates = append(streamRates, streamPkts/tStr.Seconds())
		if !fits(deadline, op) {
			break
		}
	}
	out.metrics["pkts_per_s"] = median(rates)
	out.opLatency(opMs)
	out.detail["report_pkts_per_s"] = median(reportRates)
	out.detail["stream_pkts_per_s"] = median(streamRates)
	out.detail["pair_pkts"] = p.pkts
	return out, nil
}

// writePair records env once, replays it twice and writes runs A and B
// as full-frame pcaps.
func writePair(env testbed.Env, trial experiments.TrialConfig, pathA, pathB string) (*experiments.RunResult, error) {
	res, err := experiments.Run(env, trial)
	if err != nil {
		return nil, fmt.Errorf("set-up: %s: %w", env.Name, err)
	}
	if err := pcap.WriteFile(pathA, res.Traces[0], 0); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := pcap.WriteFile(pathB, res.Traces[1], 0); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return res, nil
}

// pair is the offline_pair input with its expected outputs.
type pair struct {
	a, b    consistency.Input
	pkts    float64 // A+B tagged data packets
	windows []metrics.WindowResult
	// report is the expected consistency report; nil until the first
	// scoring, which every later one must then repeat byte for byte.
	report []byte
}

// score runs both paths once and checks their outputs. With a non-nil
// clock the stream sources are wrapped to time pcap.Stream.Next and
// stream.Run is charged to the stream layer. It returns each path's
// wall time and the packets the stream path ingested.
func (p *pair) score(out *outcome, c *layerClock) (tRep, tStr time.Duration, streamPkts float64) {
	var buf bytes.Buffer
	t := time.Now()
	err := consistency.Report(&buf, p.a, p.b, consistency.Options{WithinNs: 10})
	tRep = time.Since(t)
	if p.report == nil && err == nil {
		p.report = buf.Bytes()
	}
	out.check(err == nil && bytes.Equal(buf.Bytes(), p.report), "consistency report differs from the first repetition: %v", err)

	t = time.Now()
	sum, windows, err := p.stream(c)
	tStr = time.Since(t)
	if out.check(err == nil && sameWindows(windows, p.windows) && sum.Aggregate.Kappa > 0 && sum.Aggregate.Kappa <= 1,
		"stream.Run windows differ from metrics.CompareWindowed: %v", err) {
		streamPkts = float64(sum.PacketsA + sum.PacketsB)
	}
	return tRep, tStr, streamPkts
}

// stream is the cmd/choirstream path: both captures opened as
// incremental pcap streams and scored with default shards and buffers.
func (p *pair) stream(c *layerClock) (*stream.Summary, []metrics.WindowResult, error) {
	a, err := pcap.OpenStream(p.a.Path)
	if err != nil {
		return nil, nil, err
	}
	defer a.Close()
	b, err := pcap.OpenStream(p.b.Path)
	if err != nil {
		return nil, nil, err
	}
	defer b.Close()
	var windows []metrics.WindowResult
	cfg := stream.Config{
		Window: streamWindow, DataOnly: true, DiscardWindows: true,
		OnWindow: func(w metrics.WindowResult) { windows = append(windows, w) },
	}
	if c == nil {
		sum, err := stream.Run(a, b, cfg)
		return sum, windows, err
	}
	var busy atomic.Int64
	var sum *stream.Summary
	c.time("stream.run", func() {
		sum, err = stream.Run(timedSource{a, &busy}, timedSource{b, &busy}, cfg)
	})
	c.busy["stream.source_busy"] += time.Duration(busy.Load())
	if sum != nil {
		c.counts["stream.windows"] += float64(sum.Aggregate.Windows)
		c.counts["stream.peak_shard_entries"] += float64(sum.Stats.PeakShardEntries)
	}
	return sum, windows, err
}

// timedSource adds the time spent in the wrapped source's Next to busy.
type timedSource struct {
	src  stream.Source
	busy *atomic.Int64
}

func (s timedSource) Next() (*packet.Packet, sim.Time, error) {
	t := time.Now()
	p, at, err := s.src.Next()
	s.busy.Add(int64(time.Since(t)))
	return p, at, err
}

// sameWindows reports whether streaming windows equal the batch ones:
// bounds, counts and every score bit for bit.
func sameWindows(got, want []metrics.WindowResult) bool {
	if len(got) != len(want) {
		return false
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want {
		g, w := got[i], want[i]
		gr, wr := g.Result, w.Result
		if g.Start != w.Start || g.End != w.End || gr.Common != wr.Common || gr.OnlyA != wr.OnlyA ||
			gr.OnlyB != wr.OnlyB || gr.MovedPackets != wr.MovedPackets ||
			!same(gr.U, wr.U) || !same(gr.O, wr.O) || !same(gr.L, wr.L) || !same(gr.I, wr.I) || !same(gr.Kappa, wr.Kappa) {
			return false
		}
	}
	return true
}

// offlineTraced alternates an untraced scoring with a traced one. The
// traced scoring first re-runs Report's steps from outside — read both
// captures, normalize, compare — to split Report's time into layers;
// consistency.render_s is Report's wall time minus those steps. That
// decomposition repeats work Report does, so its own time is left out
// of the traced wall time. The set-up's simulation is replayed step by
// step for the sim.* metrics and checked against experiments.Run.
func offlineTraced(cfg config, p *pair, env testbed.Env, trial experiments.TrialConfig, rec *experiments.RunResult, out *outcome) (*outcome, error) {
	m := out.metrics
	simClock := newLayerClock()
	r, err := runProtocol(env, trial, simClock)
	out.check(err == nil && sameKappas(r, rec), "set-up: traced protocol κ differs from experiments.Run: %v", err)
	simMetrics(simClock, 1, m)

	c := newLayerClock()
	var plain, traced []float64
	var tReport time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for deadline := time.Now().Add(cfg.seconds); ; {
		round := time.Now()
		tRep, tStr, _ := p.score(out, nil)
		plain = append(plain, (tRep + tStr).Seconds())

		if err := p.decompose(c); err != nil {
			out.check(false, "decomposing the report: %v", err)
		}
		t := time.Now()
		tRep, _, _ = p.score(out, c)
		traced = append(traced, time.Since(t).Seconds())
		tReport += tRep
		if !fits(deadline, time.Since(round)) {
			break
		}
	}
	runtime.ReadMemStats(&after)

	ops := float64(len(traced))
	compareMetrics(c, ops, m)
	readS := c.seconds("pcap.read")
	m["pcap.read_s"] = readS / ops
	m["pcap.read_mb_per_s"] = c.counts["pcap.read_bytes"] / (1 << 20) / readS
	m["consistency.render_s"] = (tReport.Seconds() - readS - c.seconds("trace.normalize") - c.seconds("metrics.compare")) / ops
	m["stream.run_s"] = c.seconds("stream.run") / ops
	m["stream.source_busy_s"] = c.seconds("stream.source_busy") / ops
	m["stream.windows"] = c.counts["stream.windows"] / ops
	m["stream.peak_shard_entries"] = c.counts["stream.peak_shard_entries"] / ops
	gcMetrics(before, after, float64(len(plain)+len(traced)), m)
	m["unattributed_share"] = 1 - (tReport.Seconds()+c.seconds("stream.run"))/sumOf(traced)
	m["trace_overhead_share"] = median(traced)/median(plain) - 1
	return out, nil
}

// decompose repeats consistency.Report's steps — pcap.ReadAnyFile,
// DataOnly().Normalize(), metrics.Compare with deltas kept — charging
// each to its layer.
func (p *pair) decompose(c *layerClock) error {
	var norm [2]*trace.Trace
	for i, in := range []consistency.Input{p.a, p.b} {
		var tr *trace.Trace
		var err error
		c.time("pcap.read", func() { tr, err = pcap.ReadAnyFile(in.Path) })
		if err != nil {
			return err
		}
		if st, err := os.Stat(in.Path); err == nil {
			c.counts["pcap.read_bytes"] += float64(st.Size())
		}
		c.time("trace.normalize", func() { norm[i] = tr.DataOnly().Normalize() })
	}
	_, err := c.compare(norm[0], norm[1], metrics.Options{KeepDeltas: true})
	return err
}
