// Command perfbench is the repository's benchmark: one seeded command
// that generates its own inputs, runs one workload through the public
// entry points people use (experiments.Run, consistency.Report,
// pcap.OpenStream + stream.Run, the serve.Server HTTP handler), checks
// every output, and prints every metric by name with its unit.
//
//	go run . -workload table2 -seed 1 -seconds 20 -trace 0
//	go run . -workload served -seed 1 -seconds 20 -trace 1 -out served.json
//	go run . -diff old.json new.json
//
// With -trace 0 it prints the end-to-end metrics, measured with all
// tracing off; with -trace 1 it prints the per-layer metrics of a
// separate traced run. METRICS.md beside this file defines every
// metric and the layer it should move. The last line of standard
// output is the result as one JSON object; the line before it records
// the host fingerprint and the workload's detail figures. The command
// exits non-zero when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pkts_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload whose path does not
// cross a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"sim.record_s", "s"},
	{"sim.replay_s", "s"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.events_per_pkt", "count"},
	{"sim.noisy_s", "s"},
	{"trace.normalize_s", "s"},
	{"metrics.compare_s", "s"},
	{"metrics.compare_pkts_per_s", "1/s"},
	{"metrics.compare_allocs", "count"},
	{"metrics.compare_bytes", "B"},
	{"pcap.read_s", "s"},
	{"pcap.read_mb_per_s", "MB/s"},
	{"consistency.render_s", "s"},
	{"stream.run_s", "s"},
	{"stream.source_busy_s", "s"},
	{"stream.windows", "count"},
	{"stream.peak_shard_entries", "count"},
	{"serve.upload_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.render_ms", "ms"},
	{"serve.polls_per_session", "count"},
	{"serve.shed", "count"},
	{"serve.span.admission_ms", "ms"},
	{"serve.span.spool_ms", "ms"},
	{"serve.span.compare_ms", "ms"},
	{"serve.span.ingest_ms", "ms"},
	{"serve.span.shard_ms", "ms"},
	{"serve.span.merge_ms", "ms"},
	{"serve.span.wal_ms", "ms"},
	{"serve.span.render_ms", "ms"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"alloc_mb", "MB"},
	{"unattributed_share", "share"},
	{"trace_overhead_share", "share"},
}

// workloads maps a -workload name to the function that runs it.
var workloads = map[string]func(config) (*outcome, error){
	"table2":       table2,
	"offline_pair": offlinePair,
	"served":       served,
}

// sizes scales a workload's inputs; tests shrink them.
type sizes struct {
	table2Packets int // packets recorded per Table 2 environment
	table2Runs    int // replay trials per environment (A..)
	warmPackets   int // table2 set-up sweep scale
	pairPackets   int // packets per capture of the offline pair
	servedPackets int // packets per capture of a served pair
	setupReps     int // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{
	table2Packets: 40_000,
	table2Runs:    3,
	warmPackets:   2_000,
	pairPackets:   100_000,
	servedPackets: 15_000,
	setupReps:     5,
}

type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory for captures and server state
	size    sizes
	// expect, when non-nil, replaces the offline reference report the
	// served and offline_pair checks compare against.
	expect []byte
}

// Metric is one printed figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// outcome is what one workload run measured.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	setupS    []float64
	metrics   map[string]float64 // end-to-end (untraced) or per-layer (traced)
	detail    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]float64{}}
}

// check counts one attempted operation, failed unless ok, and logs the
// first few failures. It returns ok. Safe for concurrent use.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
	return ok
}

// opLatency records op_p50_ms from per-operation wall times in ms, and
// the 90th percentile as a detail figure when the sample supports it.
func (o *outcome) opLatency(ms []float64) {
	o.detail["ops"] = float64(len(ms))
	if p, ok := percentile(ms, 50); ok {
		o.metrics["op_p50_ms"] = p
	}
	if p, ok := percentile(ms, 90); ok {
		o.detail["op_p90_ms"] = p
	}
}

// fits reports whether another operation taking about last still ends
// before deadline.
func fits(deadline time.Time, last time.Duration) bool {
	return time.Now().Add(last).Before(deadline)
}

// gcMetrics fills gc.* and alloc_mb from MemStats deltas per operation.
func gcMetrics(before, after runtime.MemStats, ops float64, m map[string]float64) {
	m["gc.cycles"] = float64(after.NumGC-before.NumGC) / ops
	m["gc.pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9 / ops
	m["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / ops
}

// result assembles the printed result: every end-to-end metric, or with
// tracing every per-layer metric. A metric the run could not measure is
// itself a failed check.
func (o *outcome) result(trace bool) Result {
	defs := endToEnd
	if trace {
		defs = perLayer
	} else {
		o.metrics["setup_s"] = median(o.setupS)
		rss, _ := obs.PeakRSSBytes()
		o.metrics["peak_rss_mb"] = float64(rss) / (1 << 20)
	}
	res := Result{Metrics: map[string]Metric{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !trace {
			o.check(false, "metric %s not measured (too few samples?)", d.name)
			continue
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	res.Correct = o.failed == 0 && o.attempted > 0
	return res
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: table2, offline_pair or served")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "how long the measurement runs")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for the run's captures and server state (removed afterwards)")
	out := flag.String("out", "", "also write the run's record (fingerprint, result, detail) as JSON to this file")
	diff := flag.Bool("diff", false, "compare the two -out records named as arguments instead of running")
	flag.Parse()

	if *diff {
		return runDiff(flag.Args())
	}
	work, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload table2|offline_pair|served, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	cfg := config{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1,
		dir: dir, size: defaultSizes,
	}
	o, err := work(cfg)
	if err != nil {
		return fail(err)
	}
	res := o.result(cfg.trace)

	root, _ := filepath.Abs(".")
	rec := Record{
		Fingerprint: fingerprint(root), Workload: *workload, Seed: *seed,
		Seconds: *seconds, Trace: cfg.trace, Result: res, Detail: o.detail,
	}
	printTable(rec)
	if *out != "" {
		b, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	head, _ := json.Marshal(map[string]any{"fingerprint": rec.Fingerprint, "workload": rec.Workload, "detail": rec.Detail})
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n%s\n", head, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable writes the human-readable form of rec to standard error.
func printTable(rec Record) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d %ds trace=%v on %s, %d CPU, GOMAXPROCS=%d, %s, kernel %s, commit %s, source %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Fingerprint.Host.CPU, rec.Fingerprint.Host.NumCPU,
		rec.Fingerprint.Host.GOMAXPROCS, rec.Fingerprint.Host.Go, rec.Fingerprint.Host.Kernel,
		rec.Fingerprint.Commit, rec.Fingerprint.Source)
	for _, n := range sortedKeys(rec.Result.Metrics) {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range sortedKeys(rec.Detail) {
		fmt.Fprintf(os.Stderr, "  (detail) %-21s %14.6g\n", n, rec.Detail[n])
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func runDiff(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -diff needs two record files")
		return 2
	}
	old, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	cur, err := readRecord(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := diffRecords(os.Stdout, old, cur); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 1
}
