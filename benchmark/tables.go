package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"wormhole/internal/core"
	"wormhole/internal/vcsim"
)

// tablesWorkload is tables-quick: one iteration is one
// `wormbench -all -quick -csv -workers N` subprocess — the whole
// experiment catalogue through the real CLI, whose flags are the stable
// contract. It is the only workload that runs the paper's batch model
// and the schedule/core layers, and its stdout is the T1–T16
// byte-identity contract.
type tablesWorkload struct {
	env runEnv
	seg *segTimer
	rss float64 // peak over every wormbench child
	o   *ops    // each CLI run is an operation of its own
}

// seed is wormbench's -seed: at the benchmark's default seed it is 42,
// wormbench's own default, so that digest covers the canonical tables.
func (w *tablesWorkload) seed() string {
	return strconv.FormatUint(w.env.Seed+25, 10)
}

func setupTables(env runEnv, tr *tracer, seg *segTimer) (instance, error) {
	w := &tablesWorkload{env: env, seg: seg, o: &ops{}}
	if _, err := w.all(parallelism(), seg); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *tablesWorkload) all(workers int, seg *segTimer) ([]byte, error) {
	which := []string{"-all"}
	if w.env.Smoke {
		which = []string{"-run", "T1"}
	}
	out, rss, err := runBinary(w.env, seg, "wormbench", append(which, "-quick", "-csv", "-seed", w.seed(), "-workers", strconv.Itoa(workers))...)
	w.rss = max(w.rss, rss)
	w.o.done(err)
	if err == nil && len(out) == 0 {
		err = errors.New("wormbench -all printed nothing")
	}
	return out, err
}

func (w *tablesWorkload) iterate(tr *tracer, iter int) ([]byte, error) {
	id := tr.begin("core.wormbench-all-quick", 0, iter)
	defer tr.end(id)
	return w.all(parallelism(), w.seg)
}

func (w *tablesWorkload) measure(d time.Duration, o *ops) timing {
	w.o = o
	t := timedLoop(w.env, d, o, w.seg, 1, func(int, int) ([]byte, error) {
		return w.all(parallelism(), w.seg)
	})
	// The harness's determinism contract, once per run and outside the
	// timed loop: one worker prints the same bytes N workers do.
	serial, err := w.all(1, nil)
	if err == nil && !bytes.Equal(t.Result, serial) {
		err = errors.New("wormbench -workers 1 and -workers N printed different tables")
	}
	o.done(err)
	return t
}

func (w *tablesWorkload) traced(d time.Duration, o *ops, tr *tracer) map[string]float64 {
	w.o = o
	m := map[string]float64{}
	untraced, traced, _ := interleave(w.env, d, o, w.seg, w.iterate, tr)
	m["bench.trace_overhead_pct"] = overheadPct(traced, untraced)

	// Process start: the floor under every CLI run.
	var starts []float64
	for i := 0; i < 5; i++ {
		id := tr.begin("core.wormbench-list", 0, i)
		_, _, err := runBinary(w.env, nil, "wormbench", "-list")
		starts = append(starts, ms(tr.end(id)))
		o.done(err)
	}
	m["core.proc_start_ms"] = median(starts)

	// schedule.Build through core's public entry point, and the batch
	// engine behind T1–T11, on one 8-relation of 16-flit messages.
	prob := core.ButterflyQRelation(128, 8, 16, w.env.Seed)
	var builds []float64
	for i := 0; i < 3; i++ {
		id := tr.begin("schedule.RouteScheduled", 0, i)
		_, _, err := prob.RouteScheduled(core.ScheduleOptions{B: 2, Seed: w.env.Seed})
		builds = append(builds, ms(tr.end(id)))
		o.done(err)
	}
	m["schedule.build_ms"] = median(builds)

	var greedy time.Duration
	var steps int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, b := range bisectLanes {
		id := tr.begin("core.RouteGreedy", 0, b)
		res := prob.RouteGreedy(core.GreedyOptions{B: b, Policy: vcsim.ArbAge})
		greedy += tr.end(id)
		steps += res.Steps
		var err error
		if !res.AllDelivered() {
			err = fmt.Errorf("greedy B=%d delivered %d messages of %d", b, res.Delivered, prob.Set.Len())
		}
		o.done(err)
	}
	runtime.ReadMemStats(&ms1)
	m["core.greedy_ns_per_step"] = float64(greedy.Nanoseconds()) / float64(steps)
	m["core.greedy_allocs_per_step"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(steps)

	// The mapJobs fan-out at full scale: T12 on one worker and on N.
	t12 := func(workers int) (float64, []byte) {
		args := []string{"-run", "T12", "-csv", "-seed", w.seed(), "-workers", strconv.Itoa(workers)}
		if w.env.Smoke {
			args = append(args, "-quick")
		}
		id := tr.begin("core.wormbench-T12-w"+strconv.Itoa(workers), 0, workers)
		out, _, err := runBinary(w.env, nil, "wormbench", args...)
		d := tr.end(id)
		o.done(err)
		return d.Seconds(), out
	}
	n := parallelism()
	w1, serial := t12(1)
	wN, parallel := t12(n)
	if !bytes.Equal(serial, parallel) {
		o.done(errors.New("wormbench -run T12 printed different tables at -workers 1 and N"))
	}
	m["core.t12_w1_s"], m["core.t12_wN_s"] = w1, wN
	m["core.parallel_efficiency"] = w1 / (float64(n) * wN)
	return m
}

func (w *tablesWorkload) peakRSSMB() float64 { return w.rss }

func (w *tablesWorkload) close() error { return nil }
