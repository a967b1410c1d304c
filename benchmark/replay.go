package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// replayWindow is the aggregation grain of the replay's spans: calls
// into Route, Inject and StepTo are too short to record one by one, so
// each kind is summed per window of this many simulated steps.
const replayWindow = 1024

// replayResult is what one replay measured.
type replayResult struct {
	newSim, route, inject, step time.Duration
	injects, stepCalls          int64
	advances                    int64   // flit advances, from the replay sim's own counters
	allocsPerStep               float64 // injection phase, steady state

	// With snapshot set: Sim.Snapshot / RestoreSim called directly at
	// the end of the injection phase.
	snapBytes, injected, inFlight int
	snapshot, restore             time.Duration
}

// schedule is a benchmark-generated open-loop arrival schedule: the
// messages of step t are src/dst[first[t]:first[t+1]].
type schedule struct {
	first    []int32
	src, dst []int32
}

// poissonSchedule draws, per endpoint, Poisson arrivals at cfg.Rate and
// uniform destinations over the injection window: the distribution the
// traffic layer generates, from the benchmark's own stream.
func poissonSchedule(cfg *traffic.Config) schedule {
	n, horizon := cfg.Net.Endpoints, cfg.Warmup+cfg.Measure
	r := rng.New(cfg.Seed ^ 0x5bd1e995)
	next := make([]float64, n)
	gap := func() float64 { return -math.Log(1-r.Float64()) / cfg.Rate }
	for e := range next {
		next[e] = gap()
	}
	s := schedule{first: make([]int32, 0, horizon+1)}
	for t := 0; t < horizon; t++ {
		s.first = append(s.first, int32(len(s.src)))
		for e := 0; e < n; e++ {
			for next[e] < float64(t+1) {
				s.src = append(s.src, int32(e))
				s.dst = append(s.dst, int32(r.Intn(n)))
				next[e] += gap()
			}
		}
	}
	s.first = append(s.first, int32(len(s.src)))
	return s
}

// replay drives cfg's schedule straight into vcsim.NewSim / Sim.Inject /
// Sim.StepTo, bypassing the traffic layer, with Network.Route, Inject
// and StepTo timed apart per step and recorded as per-window spans. It
// also counts the steady-state allocations of Inject + StepTo, and with
// snapshot set exercises the vcsim codec at the end of the injection
// window.
func replay(cfg traffic.Config, tr *tracer, iter int, snapshot bool) (replayResult, error) {
	var out replayResult
	net := cfg.Net
	horizon := cfg.Warmup + cfg.Measure
	sched := poissonSchedule(&cfg)
	paths := make([]graph.Path, len(sched.src))
	met := telemetry.NewMetrics()
	simCfg := vcsim.Config{
		VirtualChannels: cfg.VirtualChannels,
		LaneDepth:       cfg.LaneDepth,
		SharedPool:      cfg.SharedPool,
		Arbitration:     cfg.Arbitration,
		Seed:            cfg.Seed,
		MaxSteps:        horizon + cfg.Drain,
		Metrics:         met,
	}

	root := tr.begin("bench.replay", 0, iter)
	defer tr.end(root)
	id := tr.begin("vcsim.NewSim", root, iter)
	sim, err := vcsim.NewSim(net.G, simCfg)
	out.newSim = tr.end(id)
	if err != nil {
		return out, err
	}
	injectStep := func(t int) error {
		for i := sched.first[t]; i < sched.first[t+1]; i++ {
			src, dst := int(sched.src[i]), int(sched.dst[i])
			msg := message.Message{Src: net.Source(src), Dst: net.Dest(dst), Length: cfg.MessageLength, Path: paths[i]}
			if _, err := sim.Inject(msg, t); err != nil {
				return err
			}
		}
		return nil
	}

	// Pass 1 times routing and, untimed, sizes every arena of the fresh
	// Sim, so pass 2 times Inject and StepTo in the steady state a reused
	// Runner runs in. Spans are per window; pass 2 buffers its own in a
	// slice sized up front so that it allocates nothing itself.
	type window struct {
		start        time.Time
		inject, step time.Duration
	}
	windows := make([]window, 0, (horizon+cfg.Drain)/replayWindow+2)
	var winRoute time.Duration
	winStart := time.Now()
	for t := 0; t < horizon; t++ {
		t0 := time.Now()
		for i := sched.first[t]; i < sched.first[t+1]; i++ {
			paths[i] = net.Route(int(sched.src[i]), int(sched.dst[i]))
		}
		winRoute += time.Since(t0)
		if err := injectStep(t); err != nil {
			return out, err
		}
		if err := sim.StepTo(t + 1); err != nil {
			return out, fmt.Errorf("replay step %d: %w", t, err)
		}
		if (t+1)%replayWindow == 0 || t+1 == horizon {
			tr.add("traffic.Network.Route", root, iter, winStart, winRoute)
			out.route += winRoute
			winRoute, winStart = 0, time.Now()
		}
	}
	out.injects = int64(len(sched.src))

	// Pass 2: the same schedule over the retained storage.
	sim.Reset()
	before := met.Snapshot()
	win := window{start: time.Now()}
	flush := func() {
		windows = append(windows, win)
		out.inject += win.inject
		out.step += win.step
		win = window{start: time.Now()}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for t := 0; t < horizon; t++ {
		t0 := time.Now()
		if err := injectStep(t); err != nil {
			return out, err
		}
		t1 := time.Now()
		err := sim.StepTo(t + 1)
		t2 := time.Now()
		if err != nil {
			return out, fmt.Errorf("replay pass 2 step %d: %w", t, err)
		}
		win.inject += t1.Sub(t0)
		win.step += t2.Sub(t1)
		out.stepCalls++
		if (t+1)%replayWindow == 0 {
			flush()
		}
	}
	runtime.ReadMemStats(&m1)
	out.allocsPerStep = float64(m1.Mallocs-m0.Mallocs) / float64(horizon)

	if snapshot {
		// An untimed snapshot sizes the buffer, so that the timed one
		// measures the codec and not bytes.Buffer's growth.
		var buf bytes.Buffer
		if err := sim.Snapshot(&buf); err != nil {
			return out, err
		}
		buf.Reset()
		out.injected, out.inFlight = sim.Injected(), sim.Active()
		id := tr.begin("vcsim.Sim.Snapshot", root, iter)
		err := sim.Snapshot(&buf)
		out.snapshot = tr.end(id)
		if err != nil {
			return out, err
		}
		out.snapBytes = buf.Len()
		id = tr.begin("vcsim.RestoreSim", root, iter)
		restored, err := vcsim.RestoreSim(net.G, simCfg, &buf)
		out.restore = tr.end(id)
		if err != nil {
			return out, err
		}
		if restored.Now() != sim.Now() || restored.Active() != sim.Active() {
			return out, fmt.Errorf("restored sim at step %d with %d active, original at %d with %d",
				restored.Now(), restored.Active(), sim.Now(), sim.Active())
		}
		win.start = time.Now()
	}

	for sim.Active() > 0 {
		t0 := time.Now()
		err := sim.Step()
		win.step += time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("replay drain: %w", err)
		}
		out.stepCalls++
		if sim.Now()%replayWindow == 0 {
			flush()
		}
	}
	flush()
	for _, w := range windows {
		tr.add("vcsim.Sim.Inject", root, iter, w.start, w.inject)
		tr.add("vcsim.Sim.StepTo", root, iter, w.start.Add(w.inject), w.step)
	}
	after := met.Snapshot()
	out.advances = after.Counter("advances") - before.Counter("advances")
	return out, nil
}
