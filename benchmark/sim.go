package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"wormhole/internal/telemetry"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// The five in-process simulator workloads. All are butterflies with
// Poisson arrivals, uniform destinations and ArbAge; they differ in
// which layer does the work (see BENCHMARK.json for each one's why).
// They are single-threaded by construction and never set Config.Shards.

// openLoop is the operating point the knee workloads share: n=64, L=6,
// rate 0.30 against a B=2 knee of ≈ 0.306, so the network runs a
// standing backlog without saturating. Smoke scale shrinks the windows,
// never the shape.
func openLoop(env runEnv, net *traffic.Network, b int, rate float64, warmup, measure, drain int) traffic.Config {
	if env.Smoke {
		warmup, measure, drain = warmup/16, measure/16, drain/16
	}
	return traffic.Config{
		Net:             net,
		VirtualChannels: b,
		MessageLength:   6,
		Arbitration:     vcsim.ArbAge,
		Process:         traffic.Poisson,
		Rate:            rate,
		Pattern:         traffic.Uniform,
		Warmup:          warmup,
		Measure:         measure,
		Drain:           drain,
		MaxBacklog:      65536,
		Seed:            env.Seed,
	}
}

func kneeConfig(env runEnv, net *traffic.Network) traffic.Config {
	return openLoop(env, net, 2, 0.30, 2048, 8192, 32768)
}

// checkSteady is the output check of a steady-state run: the network
// kept up, drained, and delivered every tracked message. Accepted may
// exceed the configured rate only by the Poisson noise of the window's
// arrival count (5σ).
func checkSteady(cfg *traffic.Config, res traffic.Result) error {
	expected := cfg.Rate * float64(cfg.Net.Endpoints) * float64(cfg.Measure)
	slack := 5 * math.Sqrt(expected) / (float64(cfg.Net.Endpoints) * float64(cfg.Measure))
	switch {
	case res.Saturated:
		return fmt.Errorf("run saturated (accepted %g of offered %g)", res.Accepted, res.Offered)
	case res.Backlog != 0:
		return fmt.Errorf("backlog %d after the drain window", res.Backlog)
	case res.TrackedDone != res.Tracked:
		return fmt.Errorf("tracked %d messages but %d completed", res.Tracked, res.TrackedDone)
	case res.Accepted > res.Offered+slack:
		return fmt.Errorf("accepted %g exceeds offered %g", res.Accepted, res.Offered)
	}
	return nil
}

// simRun is one reused Runner of a workload.
type simRun struct {
	label string // "" or "static"/"shared": names the deep engine's step metric
	cfg   traffic.Config
	plain *traffic.Runner
	// Traced pass only: a second Runner on the same Config with
	// telemetry counters attached.
	met     *telemetry.Metrics
	counted *traffic.Runner
	last    traffic.Result // of the most recent Run
}

// stepMetric is the per-layer name of this run's vcsim step cost.
func (r *simRun) stepMetric() string {
	if r.label == "" {
		return "vcsim.step_ns"
	}
	return "vcsim.deep_" + r.label + "_step_ns"
}

// runnerWorkload is knee-rigid, knee-deep and sparse-wide: one
// iteration is one Run() on each of its reused Runners.
type runnerWorkload struct {
	env   runEnv
	runs  []simRun
	seg   *segTimer
	build map[string]float64 // set-up timings, traced pass only
}

// setupRunners builds the workload's Runners with an OnStep hook that
// closes a timing segment every segSteps simulated steps (a few
// milliseconds of host time), and runs the warm-ups.
func setupRunners(env runEnv, tr *tracer, seg *segTimer, endpoints, warmups, segSteps int, cfgs func(net *traffic.Network) []simRun) (instance, error) {
	w := &runnerWorkload{env: env, seg: seg, build: map[string]float64{}}
	if env.Smoke {
		endpoints = min(endpoints, 256)
	}
	id := tr.begin("traffic.NewButterflyNet", 0, 0)
	net := traffic.NewButterflyNet(endpoints)
	w.build["traffic.net_build_ms"] = ms(tr.end(id))
	w.runs = cfgs(net)
	for i := range w.runs {
		r := &w.runs[i]
		r.cfg.OnStep = func(step int) error {
			if step%segSteps == 0 {
				w.seg.mark()
			}
			return nil
		}
		id := tr.begin("traffic.NewRunner", 0, 0)
		plain, err := traffic.NewRunner(r.cfg)
		w.build["traffic.runner_build_ms"] += ms(tr.end(id)) / float64(len(w.runs))
		if err != nil {
			return nil, err
		}
		r.plain = plain
		if tr != nil {
			r.met = telemetry.NewMetrics()
			cfg := r.cfg
			cfg.Metrics = r.met
			if r.counted, err = traffic.NewRunner(cfg); err != nil {
				return nil, err
			}
		}
	}
	// Warm-up iterations size every arena, so timed iterations run in
	// the allocation-free steady state users of a reused Runner see.
	for i := 0; i < warmups; i++ {
		if _, err := w.iterate(nil, 0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if tr != nil {
		for i := range w.runs {
			if _, err := w.runs[i].counted.Run(); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return w, nil
}

// iterate runs every Runner once; with a tracer it runs the counted
// twins inside spans.
func (w *runnerWorkload) iterate(tr *tracer, iter int) ([]byte, error) {
	var out bytes.Buffer
	for i := range w.runs {
		r := &w.runs[i]
		runner := r.plain
		if tr != nil {
			runner = r.counted
		}
		id := tr.begin("traffic.Runner.Run", 0, iter)
		res, err := runner.Run()
		tr.end(id)
		if err == nil {
			err = checkSteady(&r.cfg, res)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.cfg.Net.Label, err)
		}
		r.last = res
		fmt.Fprintf(&out, "%+v\n", res)
	}
	return out.Bytes(), nil
}

func (w *runnerWorkload) measure(d time.Duration, o *ops) timing {
	return timedLoop(w.env, d, o, w.seg, 1, func(int, int) ([]byte, error) { return w.iterate(nil, 0) })
}

func (w *runnerWorkload) traced(d time.Duration, o *ops, tr *tracer) map[string]float64 {
	m := w.build
	before := make([]telemetry.Snapshot, len(w.runs))
	for i := range w.runs {
		before[i] = w.runs[i].met.Snapshot()
	}
	untraced, traced, iters := interleave(w.env, d, o, w.seg, w.iterate, tr)
	over := overheadPct(traced, untraced)
	m["bench.trace_overhead_pct"] = over
	// The counters are the only in-process cost of the traced pass on a
	// Runner workload, so the two overheads are one measurement.
	m["telemetry.counters_overhead_pct"] = over

	// Exact event counts of the workload's own runs, from the counters.
	var c counts
	for i := range w.runs {
		after := w.runs[i].met.Snapshot()
		c.add(countsBetween(&before[i], &after, iters, w.runs[i].last.Steps))
	}
	c.report(m)
	wall := traced * 1e9
	m["traffic.run_ns_per_step"] = wall / c.now
	m["traffic.run_ns_per_msg"] = wall / c.injects

	// Steady-state allocations of one Run on each reused Runner.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range w.runs {
		_, err := w.runs[i].plain.Run()
		o.done(err)
	}
	runtime.ReadMemStats(&ms1)
	m["traffic.allocs_per_run"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(w.runs))

	// Replay a benchmark-generated schedule with the same parameters
	// straight into vcsim, timing routing, injection and stepping apart.
	var replayed time.Duration
	for i := range w.runs {
		r := &w.runs[i]
		rp, err := replay(r.cfg, tr, i, false)
		if !o.done(err) {
			continue
		}
		replayed += rp.route + rp.inject + rp.step
		replayMetrics(m, r.stepMetric(), &rp, float64(len(w.runs)))
	}
	// An estimate: the replay has the same distribution, not the same
	// worms, so this is Run minus a statistically equal vcsim+route cost.
	m["traffic.self_ns_per_step"] = (wall - float64(replayed.Nanoseconds())) / c.now
	return m
}

func (w *runnerWorkload) peakRSSMB() float64 { return selfRSSMB() }

func (w *runnerWorkload) close() error {
	for i := range w.runs {
		w.runs[i].plain.Close()
	}
	return nil
}

// counts are one iteration's exact event counts: telemetry counter
// deltas divided by the (identical) traced iterations that produced
// them, plus the simulated steps the results report (fast-forwarded
// steps included, which the steps counter leaves out).
type counts struct {
	steps, advances, injects, parks, wakes, spurious, now float64
}

func countsBetween(before, after *telemetry.Snapshot, iterations int, now int) counts {
	d := func(name string) float64 {
		return float64(after.Counter(name)-before.Counter(name)) / float64(iterations)
	}
	return counts{
		steps: d("steps"), advances: d("advances"), injects: d("injects"),
		parks: d("parks"), wakes: d("wakes"), spurious: d("spurious_wakes"),
		now: float64(now),
	}
}

func (c *counts) add(o counts) {
	c.steps += o.steps
	c.advances += o.advances
	c.injects += o.injects
	c.parks += o.parks
	c.wakes += o.wakes
	c.spurious += o.spurious
	c.now += o.now
}

// report writes the exact per-step ratios. They are denominators, not
// targets: any change means simulated behaviour changed.
func (c *counts) report(m map[string]float64) {
	if c.steps == 0 {
		return
	}
	m["vcsim.advances_per_step"] = c.advances / c.steps
	m["vcsim.parks_per_step"] = c.parks / c.steps
	m["vcsim.wakes_per_step"] = c.wakes / c.steps
	if c.wakes > 0 {
		m["vcsim.useful_wake_ratio"] = (c.wakes - c.spurious) / c.wakes
	}
	if c.now > 0 {
		m["vcsim.fastforward_step_ratio"] = (c.now - c.steps) / c.now
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
