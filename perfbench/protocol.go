package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/control"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// layerClock accumulates wall time and counts per layer name for the
// traced runs. The benchmark times calls into each module's public
// functions from outside; nothing inside the program is instrumented.
type layerClock struct {
	busy   map[string]time.Duration
	counts map[string]float64
}

func newLayerClock() *layerClock {
	return &layerClock{busy: map[string]time.Duration{}, counts: map[string]float64{}}
}

// time runs f and charges its wall time to layer name.
func (c *layerClock) time(name string, f func()) {
	t := time.Now()
	f()
	c.busy[name] += time.Since(t)
}

func (c *layerClock) seconds(name string) float64 { return c.busy[name].Seconds() }

// compare is metrics.Compare timed as the metrics layer, with its
// allocation count and bytes taken from runtime.MemStats deltas.
func (c *layerClock) compare(a, b *trace.Trace, opts metrics.Options) (*metrics.Result, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *metrics.Result
	var err error
	c.time("metrics.compare", func() { res, err = metrics.Compare(a, b, opts) })
	runtime.ReadMemStats(&after)
	c.counts["metrics.compare_calls"]++
	c.counts["metrics.compare_pkts"] += float64(a.Len() + b.Len())
	c.counts["metrics.compare_allocs"] += float64(after.Mallocs - before.Mallocs)
	c.counts["metrics.compare_bytes"] += float64(after.TotalAlloc - before.TotalAlloc)
	return res, err
}

// noisyEnv is the Table 2 row whose TCP noise drives the simulator
// hardest; its simulation time is reported on its own.
var noisyEnv = testbed.FabricShared40Noisy().Name

// runProtocol re-enacts experiments.Run for a CBR environment (no
// workload, no psim shards, no step budget) step by step through the
// public testbed API, charging each phase to a layer: the record phase
// (topology build, generators, record window) to sim.record, the replay
// trials to sim.replay, the data-only normalization to trace.normalize
// and the B..E-vs-A comparisons to metrics.compare. The result must be
// bit-identical to experiments.Run with the same config; callers check.
func runProtocol(env testbed.Env, cfg experiments.TrialConfig, c *layerClock) (*experiments.RunResult, error) {
	var top *testbed.Topology
	perStream := cfg.Packets / env.Replayers
	streamRate := env.RateGbps / float64(env.Replayers)
	recordDur := sim.Duration(float64(perStream) / (streamRate * 1e9 / float64((env.FrameLen+20)*8)) * 1e9)
	slack := 60 * sim.Millisecond

	simStart := time.Now()
	c.time("sim.record", func() {
		eng := sim.NewEngine(cfg.Seed)
		top = testbed.Build(eng, env)
		top.Broadcast(control.StartRecord{At: top.WallNow() + sim.Millisecond})
		top.StartGenerators(perStream, 2*sim.Millisecond)
		top.RunUntil(2*sim.Millisecond + recordDur + slack)
		top.Broadcast(control.StopRecord{At: top.WallNow()})
		top.RunUntil(top.Now() + sim.Millisecond)
	})
	res := &experiments.RunResult{Env: env}
	for _, mb := range top.Middleboxes {
		res.Recorded += mb.Recorded()
	}
	if res.Recorded == 0 {
		return nil, fmt.Errorf("%s recorded nothing", env.Name)
	}

	var raw []*trace.Trace
	c.time("sim.replay", func() {
		for r := 0; r < cfg.Runs; r++ {
			top.Recorder.StartTrial(experiments.RunNames[r])
			if env.Noise {
				top.StartNoise(top.Now() + recordDur + 3*slack)
			}
			start := top.WallNow() + 20*sim.Millisecond
			top.Broadcast(control.StartReplay{At: start})
			top.RunUntil(start + recordDur + 2*slack)
			raw = append(raw, top.Recorder.StartTrial("scratch"))
		}
	})
	if env.Name == noisyEnv {
		c.busy["sim.noisy"] += time.Since(simStart)
	}
	c.counts["sim.events"] += float64(top.Executed())

	for i, tr := range raw {
		tr.Name = experiments.RunNames[i]
		var clean *trace.Trace
		c.time("trace.normalize", func() { clean = tr.DataOnly().Normalize() })
		if err := clean.Validate(); err != nil {
			return nil, fmt.Errorf("%s run %s: %w", env.Name, tr.Name, err)
		}
		res.Traces = append(res.Traces, clean)
		c.counts["sim.captured_pkts"] += float64(clean.Len())
	}

	res.Results = make([]*metrics.Result, len(res.Traces)-1)
	res.Missing = make([]int, len(res.Traces)-1)
	for i := range res.Results {
		r, err := c.compare(res.Traces[0], res.Traces[i+1], metrics.Options{KeepDeltas: cfg.KeepDeltas})
		if err != nil {
			return nil, fmt.Errorf("%s comparing run %s: %w", env.Name, experiments.RunNames[i+1], err)
		}
		res.Results[i] = r
		res.Missing[i] = int(res.Recorded) - res.Traces[i+1].Len()
	}
	res.Mean = metrics.Mean(res.Results)
	return res, nil
}

// sameKappas reports whether two runs of one environment scored
// bit-identically, run by run and on the mean.
func sameKappas(a, b *experiments.RunResult) bool {
	if len(a.Results) != len(b.Results) || math.Float64bits(a.Mean.Kappa) != math.Float64bits(b.Mean.Kappa) {
		return false
	}
	for i := range a.Results {
		if math.Float64bits(a.Results[i].Kappa) != math.Float64bits(b.Results[i].Kappa) {
			return false
		}
	}
	return true
}

// kappaOK checks every score of a run lies in (0, 1].
func kappaOK(r *experiments.RunResult) bool {
	for _, m := range r.Results {
		if !(m.Kappa > 0 && m.Kappa <= 1) {
			return false
		}
	}
	return r.Mean.Kappa > 0 && r.Mean.Kappa <= 1
}

// capturedPackets is the data packets captured over every replay of a
// run — the work one experiments.Run pushes through the pipeline.
func capturedPackets(r *experiments.RunResult) int {
	n := 0
	for _, tr := range r.Traces {
		n += tr.Len()
	}
	return n
}

// simMetrics turns the simulator counters of c into the sim.* per-layer
// metrics, per operation of ops.
func simMetrics(c *layerClock, ops float64, m map[string]float64) {
	simS := c.seconds("sim.record") + c.seconds("sim.replay")
	m["sim.record_s"] = c.seconds("sim.record") / ops
	m["sim.replay_s"] = c.seconds("sim.replay") / ops
	m["sim.noisy_s"] = c.seconds("sim.noisy") / ops
	m["sim.events"] = c.counts["sim.events"] / ops
	if simS > 0 {
		m["sim.events_per_s"] = c.counts["sim.events"] / simS
	}
	if c.counts["sim.captured_pkts"] > 0 {
		m["sim.events_per_pkt"] = c.counts["sim.events"] / c.counts["sim.captured_pkts"]
	}
}

// compareMetrics fills trace.normalize_s and the metrics.* per-layer
// metrics from c, per operation of ops.
func compareMetrics(c *layerClock, ops float64, m map[string]float64) {
	m["trace.normalize_s"] = c.seconds("trace.normalize") / ops
	calls := c.counts["metrics.compare_calls"]
	if calls == 0 {
		return
	}
	m["metrics.compare_s"] = c.seconds("metrics.compare") / ops
	m["metrics.compare_pkts_per_s"] = c.counts["metrics.compare_pkts"] / c.seconds("metrics.compare")
	m["metrics.compare_allocs"] = c.counts["metrics.compare_allocs"] / calls
	m["metrics.compare_bytes"] = c.counts["metrics.compare_bytes"] / calls
}
