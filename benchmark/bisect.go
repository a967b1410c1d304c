package main

import (
	"fmt"
	"time"

	"wormhole/internal/telemetry"
	"wormhole/internal/traffic"
)

// bisectWorkload is bisect-sat: one iteration is traffic.SaturationRate
// for B ∈ {1, 2, 4} on the 64-input butterfly. Every probe is a fresh
// traffic.Run — a new Sim and Runner, saturated stepping with heavy
// park/wake traffic, MaxBacklog early stops — the construction-and-
// collapse regime no steady-state workload touches.
type bisectWorkload struct {
	env  runEnv
	cfgs []traffic.Config // one per B
	opts traffic.SearchOptions
	met  *telemetry.Metrics // traced pass only: every probe's counters
	o    *ops               // each search is an operation of its own
	seg  *segTimer
	last []traffic.SearchResult
}

var bisectLanes = []int{1, 2, 4}

func setupBisect(env runEnv, tr *tracer, seg *segTimer) (instance, error) {
	w := &bisectWorkload{env: env, seg: seg, opts: traffic.SearchOptions{Hi: 4, Iters: 12}, o: &ops{}}
	net := traffic.NewButterflyNet(64)
	for _, b := range bisectLanes {
		cfg := openLoop(env, net, b, 0, 256, 1024, 4096)
		if env.Smoke {
			// A saturation verdict needs a window long enough to count;
			// smoke shrinks 4×, not 16×, and bisects half as deep.
			cfg.Warmup, cfg.Measure, cfg.Drain = 64, 256, 1024
		}
		cfg.MaxBacklog = 16384
		// A segment per probe start and per 64 steps within a probe.
		cfg.OnStep = func(step int) error {
			if step == 1 || step%64 == 0 {
				w.seg.mark()
			}
			return nil
		}
		w.cfgs = append(w.cfgs, cfg)
	}
	if env.Smoke {
		w.opts.Iters = 6
	}
	if tr != nil {
		w.met = telemetry.NewMetrics()
	}
	if _, err := w.iterate(nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *bisectWorkload) iterate(tr *tracer, iter int) ([]byte, error) {
	w.last = w.last[:0]
	for _, cfg := range w.cfgs {
		if tr != nil {
			cfg.Metrics = w.met
		}
		id := tr.begin("traffic.SaturationRate", 0, iter)
		sr, err := traffic.SaturationRate(cfg, w.opts)
		tr.end(id)
		if !w.o.done(err) {
			return nil, err
		}
		w.last = append(w.last, sr)
	}
	// The paper's claim as an assertion: the knee grows with B, and
	// superlinearly — knee/B grows too.
	for i := 1; i < len(w.last); i++ {
		prev, cur := w.last[i-1].Rate, w.last[i].Rate
		pb, cb := float64(bisectLanes[i-1]), float64(bisectLanes[i])
		if cur <= prev || cur/cb <= prev/pb {
			return nil, fmt.Errorf("saturation rate not superlinear in B: B=%g → %g, B=%g → %g", pb, prev, cb, cur)
		}
	}
	return fmt.Appendf(nil, "%+v\n", w.last), nil
}

func (w *bisectWorkload) measure(d time.Duration, o *ops) timing {
	w.o = o
	return timedLoop(w.env, d, o, w.seg, 1, func(int, int) ([]byte, error) { return w.iterate(nil, 0) })
}

// probeSeedStride is how SaturationRate derives probe i's seed from
// Config.Seed (documented there: "a seed derived from (cfg.Seed, i)").
// The traced pass needs it to time each probe from outside; the replayed
// probes are checked against the search's own, so a drift is reported.
const probeSeedStride = 0x9E3779B97F4A7C15

func (w *bisectWorkload) traced(d time.Duration, o *ops, tr *tracer) map[string]float64 {
	w.o = o
	m := map[string]float64{}
	before := w.met.Snapshot()
	untraced, traced, iters := interleave(w.env, d, o, w.seg, w.iterate, tr)
	after := w.met.Snapshot()
	m["bench.trace_overhead_pct"] = overheadPct(traced, untraced)

	// Each probe again, one at a time: construction and run timed apart.
	var probeMS, buildMS []float64
	var saturated, probes, now int
	for i, sr := range w.last {
		for k, p := range sr.Probes {
			cfg := w.cfgs[i]
			cfg.Rate = p.Rate
			cfg.Seed += uint64(k) * probeSeedStride
			id := tr.begin("traffic.NewRunner", 0, k)
			r, err := traffic.NewRunner(cfg)
			build := tr.end(id)
			if !o.done(err) {
				continue
			}
			id = tr.begin("traffic.Runner.Run", 0, k)
			res, err := r.Run()
			run := tr.end(id)
			r.Close()
			if err == nil && (res.Accepted != p.Accepted || res.Saturated != p.Saturated) {
				err = fmt.Errorf("B=%d probe %d replayed to accepted %g, the search saw %g: the probe seed derivation changed", bisectLanes[i], k, res.Accepted, p.Accepted)
			}
			o.done(err)
			buildMS = append(buildMS, ms(build))
			probeMS = append(probeMS, ms(build+run))
			probes++
			now += res.Steps
			if p.Saturated {
				saturated++
			}
		}
	}
	m["traffic.probe_ms_p50"] = median(probeMS)
	m["traffic.runner_build_ms"] = median(buildMS)
	m["traffic.saturated_probe_share"] = float64(saturated) / float64(probes)
	c := countsBetween(&before, &after, iters, now)
	c.report(m)
	wall := traced * 1e9
	m["traffic.run_ns_per_step"] = wall / c.now
	m["traffic.run_ns_per_msg"] = wall / c.injects
	return m
}

func (w *bisectWorkload) peakRSSMB() float64 { return selfRSSMB() }

func (w *bisectWorkload) close() error { return nil }
