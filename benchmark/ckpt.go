package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"wormhole/internal/telemetry"
	"wormhole/internal/traffic"
)

// ckptWorkload is ckpt-long: a knee run stretched to 2048/14336/32768
// that snapshots itself from Config.OnStep at four evenly spaced steps
// of the injection window into one reused buffer, then is restored from
// the last snapshot and resumed to completion. The codecs do most of
// the work here and none in any other in-process workload.
type ckptWorkload struct {
	env      runEnv
	cfg      traffic.Config // OnStep installed
	bare     traffic.Config // the same run without hooks, for RestoreRunner
	plain    *traffic.Runner
	met      *telemetry.Metrics // traced pass only
	counted  *traffic.Runner    // traced pass only
	interval int                // snapshot every interval steps of the injection window

	buf   bytes.Buffer // pre-sized once, reused by every snapshot
	sizes []int        // this iteration's snapshot sizes
	// Snapshot sizes repeat exactly among untraced and among traced
	// iterations; the two differ, because a snapshot carries the
	// telemetry registry when one is attached.
	firstSizes [2][]int

	// The iteration in progress, for the OnStep hook.
	seg     *segTimer
	current *traffic.Runner
	tr      *tracer
	iter    int
	runSpan spanID
	hookErr error

	// Traced-iteration sums.
	last                         traffic.Result
	snapBytes, restoreBytes      int64
	snapDur, restoreDur, resumed time.Duration
	resumedSteps                 int64
}

func setupCkpt(env runEnv, tr *tracer, seg *segTimer) (instance, error) {
	w := &ckptWorkload{env: env, seg: seg}
	w.bare = openLoop(env, traffic.NewButterflyNet(64), 2, 0.30, 2048, 14336, 32768)
	horizon := w.bare.Warmup + w.bare.Measure
	w.interval = horizon / 4
	w.buf.Grow(w.bare.Measure * 2048) // ≈ 81 bytes per message ever injected, with headroom
	w.cfg = w.bare
	w.cfg.OnStep = func(step int) error {
		if step%64 == 0 {
			w.seg.mark()
		}
		if step <= horizon && step%w.interval == 0 {
			w.snapshot()
			w.seg.mark()
		}
		return nil
	}
	var err error
	if w.plain, err = traffic.NewRunner(w.cfg); err != nil {
		return nil, err
	}
	if tr != nil {
		w.met = telemetry.NewMetrics()
		cfg := w.cfg
		cfg.Metrics = w.met
		if w.counted, err = traffic.NewRunner(cfg); err != nil {
			return nil, err
		}
		w.current = w.counted
		if _, err := w.counted.Run(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if _, err := w.iterate(nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// snapshot is the OnStep hook's body: Runner.Snapshot is legal there.
func (w *ckptWorkload) snapshot() {
	w.buf.Reset()
	id := w.tr.begin("traffic.Runner.Snapshot", w.runSpan, w.iter)
	err := w.current.Snapshot(&w.buf)
	w.snapDur += w.tr.end(id)
	if err != nil && w.hookErr == nil {
		w.hookErr = err
	}
	w.sizes = append(w.sizes, w.buf.Len())
	if w.tr != nil {
		w.snapBytes += int64(w.buf.Len())
	}
}

func (w *ckptWorkload) iterate(tr *tracer, iter int) ([]byte, error) {
	w.current, w.tr, w.iter = w.plain, tr, iter
	if tr != nil {
		w.current = w.counted
	}
	w.sizes, w.hookErr = w.sizes[:0], nil

	w.runSpan = tr.begin("traffic.Runner.Run", 0, iter)
	whole, err := w.current.Run()
	tr.end(w.runSpan)
	if err == nil {
		err = w.hookErr
	}
	if err == nil {
		err = checkSteady(&w.cfg, whole)
	}
	if err != nil {
		return nil, err
	}
	if len(w.sizes) != 4 {
		return nil, fmt.Errorf("took %d snapshots, want 4", len(w.sizes))
	}
	kind := 0
	if tr != nil {
		kind = 1
	}
	if w.firstSizes[kind] == nil {
		w.firstSizes[kind] = slices.Clone(w.sizes)
	} else if !slices.Equal(w.sizes, w.firstSizes[kind]) {
		return nil, fmt.Errorf("snapshot sizes %v differ from the first iteration's %v", w.sizes, w.firstSizes[kind])
	}

	w.seg.mark()
	id := tr.begin("traffic.RestoreRunner", 0, iter)
	restored, err := traffic.RestoreRunner(w.bare, bytes.NewReader(w.buf.Bytes()))
	w.restoreDur += tr.end(id)
	if err != nil {
		return nil, err
	}
	defer restored.Close()
	w.seg.mark()
	id = tr.begin("traffic.Runner.Resume", 0, iter)
	resumedRes, err := restored.Resume()
	w.resumed += tr.end(id)
	if err != nil {
		return nil, err
	}
	if resumedRes != whole {
		return nil, fmt.Errorf("resumed result %+v differs from the uninterrupted run's %+v", resumedRes, whole)
	}
	if tr != nil {
		w.restoreBytes += int64(w.buf.Len())
		w.resumedSteps += int64(whole.Steps - (w.bare.Warmup + w.bare.Measure))
	}
	w.last = whole
	return fmt.Appendf(nil, "%+v\n", whole), nil
}

func (w *ckptWorkload) measure(d time.Duration, o *ops) timing {
	t := timedLoop(w.env, d, o, w.seg, 1, func(int, int) ([]byte, error) { return w.iterate(nil, 0) })
	t.Result = fmt.Appendf(t.Result, "snapshot bytes %v\n", w.firstSizes[0])
	return t
}

func (w *ckptWorkload) traced(d time.Duration, o *ops, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	before := w.met.Snapshot()
	untraced, traced, iters := interleave(w.env, d, o, w.seg, w.iterate, tr)
	after := w.met.Snapshot()
	m["bench.trace_overhead_pct"] = overheadPct(traced, untraced)
	m["telemetry.counters_overhead_pct"] = m["bench.trace_overhead_pct"]

	c := countsBetween(&before, &after, iters, w.last.Steps)
	c.report(m)
	wall := traced * 1e9
	m["traffic.run_ns_per_step"] = wall / c.now
	m["traffic.run_ns_per_msg"] = wall / c.injects
	m["traffic.snapshot_mb_s"] = mbPerS(w.snapBytes, w.snapDur)
	m["traffic.restore_mb_s"] = mbPerS(w.restoreBytes, w.restoreDur)
	m["traffic.resume_ns_per_step"] = float64(w.resumed.Nanoseconds()) / float64(w.resumedSteps)
	m["traffic.snapshot_bytes_max"] = float64(slices.Max(w.firstSizes[0]))

	rp, err := replay(w.bare, tr, 0, true)
	if o.done(err) {
		replayMetrics(m, "vcsim.step_ns", &rp, 1)
		m["vcsim.snapshot_mb_s"] = mbPerS(int64(rp.snapBytes), rp.snapshot)
		m["vcsim.restore_mb_s"] = mbPerS(int64(rp.snapBytes), rp.restore)
		m["vcsim.snapshot_bytes_per_injected"] = float64(rp.snapBytes) / float64(rp.injected)
		m["vcsim.snapshot_bytes_per_inflight"] = float64(rp.snapBytes) / float64(rp.inFlight)
	}
	return m
}

func (w *ckptWorkload) peakRSSMB() float64 { return selfRSSMB() }

func (w *ckptWorkload) close() error {
	w.plain.Close()
	return nil
}

func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// replayMetrics writes one replay's per-call costs; share splits the
// metrics a workload with several Runners averages over them.
func replayMetrics(m map[string]float64, stepMetric string, rp *replayResult, share float64) {
	m[stepMetric] = float64(rp.step.Nanoseconds()) / float64(rp.stepCalls)
	m["vcsim.inject_ns"] += float64(rp.inject.Nanoseconds()) / float64(rp.injects) / share
	m["traffic.route_ns"] += float64(rp.route.Nanoseconds()) / float64(rp.injects) / share
	m["vcsim.newsim_ms"] += ms(rp.newSim) / share
	m["vcsim.ns_per_advance"] += float64(rp.step.Nanoseconds()) / float64(rp.advances) / share
	m["vcsim.allocs_per_step"] += rp.allocsPerStep / share
}
