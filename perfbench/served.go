package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/consistency"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/testbed"
)

// pollEvery is how long a client waits between session state polls.
const pollEvery = 2 * time.Millisecond

// served runs an in-process choird (serve.Server behind a loopback
// httptest listener) under a closed loop of nproc clients, one tenant
// each. A client uploads a small noisy-shared FABRIC capture pair, polls
// until the session is done, fetches ?format=consistency and compares it
// byte for byte with the offline consistency.Report of the same files.
// Admission, multipart spool, WAL, the streaming compare and render do
// the work; many small in-order pairs with high IAT variance exercise
// metrics and stream differently from offline_pair's one large
// reordered pair.
//
// Set-up records the pair, writes both captures, renders the offline
// report, builds the multipart body and starts the server. An operation
// is one session, timed from the POST until the report is received.
func served(cfg config) (*outcome, error) {
	out := newOutcome()
	env := testbed.FabricShared40Noisy()
	trial := experiments.TrialConfig{Packets: cfg.size.servedPackets, Runs: 2, Seed: cfg.seed, Workers: 1}
	var fx *fixture
	for i := 0; i < cfg.size.setupReps; i++ {
		if fx != nil {
			fx.close()
		}
		t := time.Now()
		var err error
		if fx, err = newFixture(cfg, env, trial, false); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t).Seconds())
	}
	if cfg.expect != nil {
		fx.expect = cfg.expect
	}
	clients := runtime.NumCPU()

	if cfg.trace {
		return servedTraced(cfg, fx, env, trial, clients, out)
	}
	st := fx.load(clients, cfg.seconds, out, false)
	fx.close()
	lat := st.latencies()
	out.metrics["pkts_per_s"] = float64(len(lat)) * fx.pkts / st.wall.Seconds()
	out.opLatency(lat)
	out.detail["sessions_per_s"] = float64(len(lat)) / st.wall.Seconds()
	out.detail["clients"] = float64(clients)
	if p, ok := percentile(lat, 50); ok {
		out.detail["session_p50_ms"] = p
	}
	if p, ok := percentile(lat, 90); ok {
		out.detail["session_p90_ms"] = p
	}
	return out, nil
}

// fixture is one server with its input pair and expected report.
type fixture struct {
	body   []byte // multipart upload of A.pcap and B.pcap
	ctype  string
	expect []byte  // offline consistency.Report of the pair
	pkts   float64 // A+B tagged data packets
	rec    *experiments.RunResult
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func newFixture(cfg config, env testbed.Env, trial experiments.TrialConfig, spans bool) (*fixture, error) {
	pathA, pathB := filepath.Join(cfg.dir, "A.pcap"), filepath.Join(cfg.dir, "B.pcap")
	rec, err := writePair(env, trial, pathA, pathB)
	if err != nil {
		return nil, err
	}
	fx := &fixture{pkts: float64(rec.Traces[0].Len() + rec.Traces[1].Len()), rec: rec}
	var report bytes.Buffer
	if err := consistency.Report(&report, consistency.Input{Path: pathA, Name: "A.pcap"},
		consistency.Input{Path: pathB, Name: "B.pcap"}, consistency.Options{WithinNs: 10}); err != nil {
		return nil, fmt.Errorf("set-up: offline report: %w", err)
	}
	fx.expect = report.Bytes()

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, part := range []struct{ field, path string }{{"a", pathA}, {"b", pathB}} {
		fw, err := mw.CreateFormFile(part.field, filepath.Base(part.path))
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(part.path)
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(data); err != nil {
			return nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	fx.body, fx.ctype = body.Bytes(), mw.FormDataContentType()
	if err := fx.start(cfg.seed, filepath.Join(cfg.dir, "state"), spans); err != nil {
		return nil, err
	}
	return fx, nil
}

// start launches a server with default budgets and windows over dir.
func (fx *fixture) start(seed int64, dir string, spans bool) error {
	srv, err := serve.New(serve.Config{Dir: dir, Seed: seed, Spans: spans})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	fx.srv = srv
	fx.ts = httptest.NewServer(srv.Handler())
	fx.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * runtime.NumCPU()}}
	return nil
}

// close stops the listener and drains the server.
func (fx *fixture) close() {
	fx.client.CloseIdleConnections()
	fx.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fx.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: drain: %v\n", err)
	}
}

// session is one client-side session's timeline.
type session struct {
	id                   string
	upload, wait, render time.Duration
	polls                int
	spans                map[string]float64 // self ms per span name (traced)
	windows, peakEntries float64            // from the result JSON (traced)
	compareMs            float64            // compare span duration (traced)
}

func (s session) total() time.Duration { return s.upload + s.wait + s.render }

// loadStats is what a closed-loop load measured.
type loadStats struct {
	mu       sync.Mutex
	sessions []session
	shed     int
	busy     time.Duration // summed client loop time
	wall     time.Duration
}

func (st *loadStats) latencies() []float64 {
	ms := make([]float64, len(st.sessions))
	for i, s := range st.sessions {
		ms[i] = msOf(s.total())
	}
	return ms
}

// load runs clients closed-loop sessions until d has passed, then waits
// for the sessions in flight.
func (fx *fixture) load(clients int, d time.Duration, out *outcome, traced bool) *loadStats {
	st := &loadStats{}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t := time.Now()
				s, ok, shed := fx.session(tenant, traced)
				out.check(ok, "session %s for tenant %s failed", s.id, tenant)
				busy := time.Since(t)
				st.mu.Lock()
				st.busy += busy
				if shed {
					st.shed++
				}
				if ok {
					st.sessions = append(st.sessions, s)
				}
				st.mu.Unlock()
			}
		}(fmt.Sprintf("bench%02d", c))
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}

// sessionView is the subset of choird's session JSON the clients read.
type sessionView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Replay string `json:"replay"`
}

// session drives one upload to its checked report. ok is false on any
// failure: an upload not answered 202 (shed reports 429 or 413), a
// failed session, or a report that differs from the offline bytes.
func (fx *fixture) session(tenant string, traced bool) (s session, ok, shed bool) {
	base := fx.ts.URL + "/v1/sessions"
	t := time.Now()
	resp, err := fx.client.Post(base+"?tenant="+tenant, fx.ctype, bytes.NewReader(fx.body))
	if err != nil {
		return s, false, false
	}
	var v sessionView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	s.upload = time.Since(t)
	s.id = v.ID
	if resp.StatusCode != http.StatusAccepted || err != nil {
		code := resp.StatusCode
		return s, false, code == http.StatusTooManyRequests || code == http.StatusRequestEntityTooLarge
	}

	t = time.Now()
	for v.State != string(serve.StateDone) {
		if v.State == string(serve.StateFailed) {
			return s, false, false
		}
		time.Sleep(pollEvery)
		s.polls++
		if err := fx.getJSON(base+"/"+v.ID, &v); err != nil {
			return s, false, false
		}
	}
	s.wait = time.Since(t)

	t = time.Now()
	report, err := fx.get(base + "/" + v.ID + "/result?format=consistency")
	s.render = time.Since(t)
	ok = err == nil && bytes.Equal(report, fx.expect)

	if traced {
		var res serve.Result
		var tr spanTrace
		if fx.getJSON(base+"/"+v.ID+"/result", &res) != nil || fx.getJSON(base+"/"+v.ID+"/trace", &tr) != nil {
			return s, false, false
		}
		s.windows, s.peakEntries = float64(res.Aggregate.Windows), float64(res.PeakShardEntries)
		s.spans, s.compareMs = tr.selfTimes()
	}
	// Spooled captures are kept for resume and replay; delete them so a
	// run's disk use stays at the sessions in flight.
	if f := strings.Fields(v.Replay); len(f) == 3 {
		os.Remove(f[1])
		os.Remove(f[2])
	}
	return s, ok, false
}

func (fx *fixture) get(url string) ([]byte, error) {
	resp, err := fx.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, err
}

func (fx *fixture) getJSON(url string, v any) error {
	body, err := fx.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// spanTrace is the Chrome trace_event JSON choird serves per session.
type spanTrace struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

// selfTimes sums each span name's self time in ms — its duration minus
// the part of it its children cover — and returns the compare span's
// duration.
func (tr spanTrace) selfTimes() (map[string]float64, float64) {
	type iv struct{ lo, hi float64 }
	spans := map[string]iv{}
	children := map[string][]iv{}
	names := map[string]string{}
	var compareMs float64
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		id := e.Args["span"]
		spans[id] = iv{e.Ts, e.Ts + e.Dur}
		names[id] = e.Name
		children[e.Args["parent"]] = append(children[e.Args["parent"]], iv{e.Ts, e.Ts + e.Dur})
		if e.Name == "compare" {
			compareMs += e.Dur / 1e3
		}
	}
	self := map[string]float64{}
	for id, s := range spans {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, reach := 0.0, s.lo
		for _, k := range kids {
			lo, hi := max(k.lo, reach), min(k.hi, s.hi)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[names[id]] += (s.hi - s.lo - covered) / 1e3
	}
	return self, compareMs
}

// spanNames are the choird spans whose self time is reported.
var spanNames = []string{"admission", "spool", "compare", "ingest", "shard", "merge", "wal", "render"}

// servedTraced loads an untraced server for half the run (the reference
// for trace_overhead_share), then a server with per-session span
// tracing for the other half, reading each session's span tree back.
// The set-up's simulation is replayed step by step for the sim.*
// metrics and checked against experiments.Run.
func servedTraced(cfg config, fx *fixture, env testbed.Env, trial experiments.TrialConfig, clients int, out *outcome) (*outcome, error) {
	m := out.metrics
	simClock := newLayerClock()
	r, err := runProtocol(env, trial, simClock)
	out.check(err == nil && sameKappas(r, fx.rec), "set-up: traced protocol κ differs from experiments.Run: %v", err)
	simMetrics(simClock, 1, m)

	plain := fx.load(clients, cfg.seconds/2, out, false)
	fx.close()
	if err := fx.start(cfg.seed, filepath.Join(cfg.dir, "traced"), true); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := fx.load(clients, cfg.seconds/2, out, true)
	runtime.ReadMemStats(&after)
	fx.close()

	n := len(st.sessions)
	if n == 0 || len(plain.sessions) == 0 {
		return nil, fmt.Errorf("no session completed")
	}
	var upload, wait, render, polls, windows, peak, compare []float64
	var layered time.Duration
	self := map[string][]float64{}
	for _, s := range st.sessions {
		upload = append(upload, msOf(s.upload))
		wait = append(wait, msOf(s.wait))
		render = append(render, msOf(s.render))
		polls = append(polls, float64(s.polls))
		windows = append(windows, s.windows)
		peak = append(peak, s.peakEntries)
		compare = append(compare, s.compareMs/1e3)
		layered += s.total()
		for _, name := range spanNames {
			self[name] = append(self[name], s.spans[name])
		}
	}
	m["serve.upload_ms"] = median(upload)
	m["serve.wait_ms"] = median(wait)
	m["serve.render_ms"] = median(render)
	m["serve.polls_per_session"] = sumOf(polls) / float64(n)
	m["serve.shed"] = float64(st.shed)
	for _, name := range spanNames {
		m["serve.span."+name+"_ms"] = median(self[name])
	}
	m["stream.run_s"] = median(compare)
	m["stream.windows"] = median(windows)
	m["stream.peak_shard_entries"] = median(peak)
	gcMetrics(before, after, float64(n), m)
	m["unattributed_share"] = 1 - layered.Seconds()/st.busy.Seconds()
	m["trace_overhead_share"] = median(st.latencies())/median(plain.latencies()) - 1
	return out, nil
}
