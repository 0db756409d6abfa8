package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so sorting matters
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 50, false, 0},
		{20, 50, true, 10},
		{99, 90, false, 0},
		{100, 90, true, 90},
		{1000, 99, true, 990},
		{1000, 99.5, false, 0},
		{0, 50, false, 0},
	} {
		got, ok := percentile(samples(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, p%v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestDiffRefusesMismatchedHosts(t *testing.T) {
	rec := func(nproc int, commit string, v float64) Record {
		return Record{
			Fingerprint: Fingerprint{Host: Host{CPU: "x", NumCPU: nproc, GOMAXPROCS: nproc, Go: "go1.24", Kernel: "6"}, Commit: commit},
			Workload:    "table2", Seconds: 30,
			Result: Result{Metrics: map[string]Metric{"pkts_per_s": {Value: v, Unit: "1/s"}}},
		}
	}
	if err := diffRecords(io.Discard, rec(1, "a", 100), rec(2, "b", 120)); err == nil {
		t.Fatal("diff across a 1-CPU and a 2-CPU host was not refused")
	}
	var out strings.Builder
	if err := diffRecords(&out, rec(2, "a", 100), rec(2, "b", 120)); err != nil {
		t.Fatalf("diff on one host refused: %v", err)
	}
	if !strings.Contains(out.String(), "+20.0%") {
		t.Fatalf("diff output lacks the change:\n%s", out.String())
	}
	other := rec(2, "b", 120)
	other.Workload = "served"
	if err := diffRecords(io.Discard, rec(2, "a", 100), other); err == nil {
		t.Fatal("diff across workloads was not refused")
	}
}

// tiny shrinks every workload so a test runs in seconds.
var tiny = sizes{
	table2Packets: 2_000, table2Runs: 2, warmPackets: 500,
	pairPackets: 4_000, servedPackets: 1_000, setupReps: 1,
}

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 3, seconds: time.Second, trace: trace, dir: t.TempDir(), size: tiny}
}

// TestWrongExpectedReportFails runs the report-checking workloads
// against their real reference and against a wrong one: only the wrong
// one may fail, and it must.
func TestWrongExpectedReportFails(t *testing.T) {
	for name, run := range map[string]func(config) (*outcome, error){"offline_pair": offlinePair, "served": served} {
		cfg := tinyConfig(t, false)
		o, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Fatalf("%s: unchanged code failed %d of %d checks", name, o.failed, o.attempted)
		}

		cfg = tinyConfig(t, false)
		cfg.expect = []byte("U (uniqueness) = 0\n")
		o, err = run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.failed == 0 || o.result(false).Correct {
			t.Fatalf("%s: wrong expected report passed (%d of %d checks failed)", name, o.failed, o.attempted)
		}
	}
}

// TestTracedRunsCheckAndFillLayers runs every workload traced at tiny
// scale: the traced protocol must reproduce experiments.Run, and every
// per-layer metric must be printed.
func TestTracedRunsCheckAndFillLayers(t *testing.T) {
	for name, run := range workloads {
		o, err := run(tinyConfig(t, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := o.result(true)
		if !res.Correct {
			t.Fatalf("%s: %d of %d checks failed", name, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Fatalf("%s: printed %d per-layer metrics, want %d", name, len(res.Metrics), len(perLayer))
		}
		if res.Metrics["sim.events"].Value <= 0 {
			t.Errorf("%s: sim.events not measured", name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed names and units in
// step with the benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
