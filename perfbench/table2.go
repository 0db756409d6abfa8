package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/testbed"
)

// table2 regenerates the paper's Table 2 sequentially: one
// experiments.Run per environment, record once and replay A..E, scoring
// B..E against A. This is what a reproducing researcher runs; the
// simulator dominates it, and the noisy-shared row drives the TCP noise
// path that the constant-bit-rate rows never touch.
//
// Set-up is a reduced-scale sweep, so lazy initialization and heap
// growth are paid before timing. An operation is one environment's
// experiments.Run; pkts_per_s counts the data packets captured over
// every replay of every environment per second of sweep wall time.
func table2(cfg config) (*outcome, error) {
	envs := testbed.AllEnvironments()
	trial := experiments.TrialConfig{Packets: cfg.size.table2Packets, Runs: cfg.size.table2Runs, Seed: cfg.seed, Workers: 1}
	warm := trial
	warm.Packets = cfg.size.warmPackets

	out := newOutcome()
	for i := 0; i < cfg.size.setupReps; i++ {
		t := time.Now()
		for _, env := range envs {
			if _, err := experiments.Run(env, warm); err != nil {
				return nil, fmt.Errorf("set-up sweep: %s: %w", env.Name, err)
			}
		}
		out.setupS = append(out.setupS, time.Since(t).Seconds())
	}

	if cfg.trace {
		return table2Traced(cfg, envs, trial, out)
	}
	var first []*experiments.RunResult
	var rates, envMs []float64
	for deadline := time.Now().Add(cfg.seconds); ; {
		t := time.Now()
		rows, ms, pkts := sweep(envs, trial, out)
		wall := time.Since(t)
		rates = append(rates, float64(pkts)/wall.Seconds())
		envMs = append(envMs, ms...)
		if first == nil {
			first = rows
		} else {
			for i, r := range rows {
				out.check(r == nil || first[i] == nil || sameKappas(r, first[i]),
					"%s: κ differs between sweeps of one seed", envs[i].Name)
			}
		}
		if !fits(deadline, wall) {
			break
		}
	}
	out.metrics["pkts_per_s"] = median(rates)
	out.opLatency(envMs)
	out.detail["sweeps"] = float64(len(rates))
	out.detail["replay_pkts_per_s"] = median(rates)
	return out, nil
}

// sweep runs every environment once through experiments.Run. It returns
// each row (nil where the run failed), each run's wall time in ms, and
// the data packets captured over all replays.
func sweep(envs []testbed.Env, trial experiments.TrialConfig, out *outcome) ([]*experiments.RunResult, []float64, int) {
	rows := make([]*experiments.RunResult, len(envs))
	ms := make([]float64, len(envs))
	pkts := 0
	for i, env := range envs {
		t := time.Now()
		r, err := experiments.Run(env, trial)
		ms[i] = msOf(time.Since(t))
		if !out.check(err == nil && kappaOK(r), "%s: run failed or κ out of (0,1]: %v", env.Name, err) {
			continue
		}
		rows[i] = r
		pkts += capturedPackets(r)
	}
	return rows, ms, pkts
}

// table2Traced alternates an untraced sweep through experiments.Run with
// a traced sweep through runProtocol and asserts the two score every
// environment bit-identically. The untraced sweep is also the reference
// for trace_overhead_share.
func table2Traced(cfg config, envs []testbed.Env, trial experiments.TrialConfig, out *outcome) (*outcome, error) {
	c := newLayerClock()
	var plain, traced []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for deadline := time.Now().Add(cfg.seconds); ; {
		round := time.Now()
		rows, _, _ := sweep(envs, trial, out)
		plain = append(plain, time.Since(round).Seconds())

		t := time.Now()
		for i, env := range envs {
			r, err := runProtocol(env, trial, c)
			out.check(err == nil && rows[i] != nil && sameKappas(r, rows[i]),
				"%s: traced protocol κ differs from experiments.Run: %v", env.Name, err)
		}
		traced = append(traced, time.Since(t).Seconds())
		if !fits(deadline, time.Since(round)) {
			break
		}
	}
	runtime.ReadMemStats(&after)

	m := out.metrics
	ops := float64(len(traced))
	simMetrics(c, ops, m)
	compareMetrics(c, ops, m)
	gcMetrics(before, after, float64(len(plain)+len(traced)), m)
	layered := c.seconds("sim.record") + c.seconds("sim.replay") + c.seconds("trace.normalize") + c.seconds("metrics.compare")
	m["unattributed_share"] = 1 - layered/sumOf(traced)
	m["trace_overhead_share"] = median(traced)/median(plain) - 1
	return out, nil
}
