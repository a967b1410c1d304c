package core

import (
	"fmt"

	"wormhole/internal/butterfly"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/routeopt"
	"wormhole/internal/schedule"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/vcsim"
)

// A1Arbitration measures whether the one-pass lower-bound shape (T4)
// depends on the router's arbitration policy.
func A1Arbitration(cfg Config) []*stats.Table {
	n, q := 256, 8
	if cfg.Quick {
		n, q = 64, 6
	}
	l := topology.Log2(n)
	bf := topology.NewButterfly(n)
	r := rng.New(cfg.Seed)
	pairs := butterfly.RandomDestinations(n, q, r)

	type job struct {
		b   int
		pol vcsim.Policy
	}
	var jobs []job
	for _, b := range []int{1, 2, 4} {
		for _, pol := range []vcsim.Policy{vcsim.ArbByID, vcsim.ArbRandom, vcsim.ArbAge} {
			jobs = append(jobs, job{b, pol})
		}
	}
	type out struct {
		steps, stalls int
	}
	outs := mapJobs(cfg, len(jobs), func(i int) out {
		res := butterfly.RunOnePass(bf, pairs, l, vcsim.Config{VirtualChannels: jobs[i].b, Arbitration: jobs[i].pol, Seed: cfg.Seed})
		return out{steps: res.Steps, stalls: res.TotalStalls}
	})
	t := stats.NewTable(
		"A1 — ablation: arbitration policy on greedy one-pass routing",
		"policy", "B", "steps", "stalls")
	for i, o := range outs {
		t.AddRow(jobs[i].pol.String(), jobs[i].b, o.steps, o.stalls)
	}
	return []*stats.Table{t}
}

// A2Resample compares whole-refinement rejection sampling with
// violated-class-only (Moser–Tardos style) resampling in the LLL
// scheduler.
func A2Resample(cfg Config) []*stats.Table {
	p := ButterflyQRelation(64, 8, 24, cfg.Seed)
	if !cfg.Quick {
		p = ButterflyQRelation(256, 16, 48, cfg.Seed)
	}
	type job struct {
		b     int
		whole bool
	}
	var jobs []job
	for _, b := range []int{1, 2, 4} {
		jobs = append(jobs, job{b, false}, job{b, true})
	}
	type out struct {
		classes, attempts int
		escalated         bool
	}
	outs := mapJobs(cfg, len(jobs), func(i int) out {
		sched, err := schedule.Build(p.Set, schedule.Options{
			B:             jobs[i].b,
			ConstantScale: constantScale,
			ResampleWhole: jobs[i].whole,
		}, rng.New(cfg.Seed))
		if err != nil {
			panic(fmt.Sprintf("A2: %v", err))
		}
		o := out{classes: sched.NumClasses}
		for _, st := range sched.Steps {
			o.attempts += st.Attempts
			o.escalated = o.escalated || st.Escalated
		}
		return o
	})
	t := stats.NewTable(
		"A2 — ablation: resampling granularity in the LLL scheduler",
		"mode", "B", "classes", "attempts", "escalated")
	for i, o := range outs {
		mode := "violated-only"
		if jobs[i].whole {
			mode = "whole"
		}
		t.AddRow(mode, jobs[i].b, o.classes, o.attempts, o.escalated)
	}
	return []*stats.Table{t}
}

// A3Drop compares drop-on-delay against blocking within a single subround
// batch: dropping loses messages but finishes in exactly 2·log n + L − 1
// steps; blocking delivers everything but stretches the makespan.
func A3Drop(cfg Config) []*stats.Table {
	n, q := 64, 8
	if !cfg.Quick {
		n, q = 256, 8
	}
	k := topology.Log2(n)
	l := k
	tp := topology.NewTwoPassButterfly(n)
	r := rng.New(cfg.Seed)

	routes := make([]butterfly.TwoPassRoute, 0, n*q)
	for src := 0; src < n; src++ {
		for j := 0; j < q; j++ {
			routes = append(routes, butterfly.TwoPassRoute{
				Src: src, Mid: r.Intn(n), Dst: r.Intn(n),
			})
		}
	}
	set := butterfly.TwoPassPathEndpoints(tp, routes, l)

	// Two jobs per B: the drop-on-delay run and the blocking run.
	type job struct {
		b    int
		drop bool
	}
	var jobs []job
	for _, b := range []int{1, 2, 4} {
		jobs = append(jobs, job{b, true}, job{b, false})
	}
	outs := mapJobs(cfg, len(jobs), func(i int) vcsim.Result {
		return vcsim.Run(set, nil, vcsim.Config{
			VirtualChannels: jobs[i].b, DropOnDelay: jobs[i].drop,
			Arbitration: vcsim.ArbRandom, Seed: cfg.Seed,
			Metrics: cfg.metrics(),
		})
	})
	t := stats.NewTable(
		"A3 — ablation: drop-on-delay vs blocking for one subround batch",
		"mode", "B", "delivered", "dropped", "steps")
	for i, res := range outs {
		mode := "blocking"
		if jobs[i].drop {
			mode = "drop-on-delay"
		}
		t.AddRow(mode, jobs[i].b, res.Delivered, res.Dropped, res.Steps)
	}
	return []*stats.Table{t}
}

// A4Passes compares one-pass and two-pass routing at equal hardware on a
// worst-case permutation: Valiant's random intermediate destinations
// spread the bit-reversal hotspot.
func A4Passes(cfg Config) []*stats.Table {
	n := 64
	if !cfg.Quick {
		n = 256
	}

	// Bit-reversal: the classic adversarial permutation for bit-fixing.
	pairs := make([]butterfly.ColPair, n)
	k := topology.Log2(n)
	for w := 0; w < n; w++ {
		rev := 0
		for b := 0; b < k; b++ {
			if w&(1<<b) != 0 {
				rev |= 1 << (k - 1 - b)
			}
		}
		pairs[w] = butterfly.ColPair{Src: w, Dst: rev}
	}

	// Two jobs per B (one-pass, two-pass). Each job owns a child source
	// pre-split from the experiment seed by index, so the randomized runs
	// stay deterministic under any worker count.
	type job struct {
		b       int
		twoPass bool
	}
	var jobs []job
	for _, b := range []int{1, 2, 4} {
		jobs = append(jobs, job{b, false}, job{b, true})
	}
	srcs := jobSources(cfg.Seed, len(jobs))
	survivors := mapJobs(cfg, len(jobs), func(i int) int {
		b, jr := jobs[i].b, srcs[i]
		if !jobs[i].twoPass {
			return len(butterfly.RunLockstepOnePass(n, b, pairs, butterfly.ArbRandom, jr))
		}
		routes := make([]butterfly.TwoPassRoute, n)
		for j, p := range pairs {
			routes[j] = butterfly.TwoPassRoute{Src: p.Src, Mid: jr.Intn(n), Dst: p.Dst}
		}
		return len(butterfly.RunLockstepSubround(n, b, routes, butterfly.ArbRandom, jr))
	})
	t := stats.NewTable(
		"A4 — ablation: one-pass vs two-pass delivery on bit-reversal",
		"mode", "B", "survivors", "fraction")
	for i, s := range survivors {
		mode := "one-pass"
		if jobs[i].twoPass {
			mode = "two-pass"
		}
		t.AddRow(mode, jobs[i].b, s, float64(s)/float64(n))
	}
	return []*stats.Table{t}
}

// A5PathSelection measures the end-to-end effect of congestion-aware
// path selection (the Srinivasan–Teo theme the paper cites): lower C
// feeds straight through the Theorem 2.1.6 scheduler into shorter
// verified schedules.
func A5PathSelection(cfg Config) []*stats.Table {
	side := 8
	msgs := 96
	if !cfg.Quick {
		side = 16
		msgs = 512
	}
	m := topology.NewMesh(side, side)
	r := rng.New(cfg.Seed)
	// Skewed traffic: half the messages target one column, half uniform.
	var pairs []message.Endpoints
	for i := 0; i < msgs; i++ {
		src := graph.NodeID(r.Intn(side * side))
		var dst graph.NodeID
		if i%2 == 0 {
			dst = m.Node(side-1, r.Intn(side))
		} else {
			dst = graph.NodeID(r.Intn(side * side))
		}
		if src == dst {
			continue
		}
		pairs = append(pairs, message.Endpoints{Src: src, Dst: dst})
	}
	l := 2 * side

	// One job per path selector; each builds its own message set, so the
	// three schedule-and-verify pipelines are independent.
	selectors := []struct {
		name  string
		build func() *message.Set
	}{
		{"BFS shortest paths", func() *message.Set {
			return message.Build(m.G, pairs, l, message.ShortestPathRouter(m.G))
		}},
		{"greedy min-max", func() *message.Set {
			return routeopt.GreedyMinMax(m.G, pairs, l)
		}},
		{"BFS + rebalance", func() *message.Set {
			set := message.Build(m.G, pairs, l, message.ShortestPathRouter(m.G))
			routeopt.Rebalance(set)
			return set
		}},
	}
	type out struct {
		c, d, classes, steps int
	}
	outs := mapJobs(cfg, len(selectors), func(i int) out {
		p := NewProblem(selectors[i].name, selectors[i].build())
		sched, res, err := p.RouteScheduled(ScheduleOptions{B: 2, Seed: cfg.Seed, Metrics: cfg.metrics()})
		if err != nil {
			panic(fmt.Sprintf("A5 %s: %v", selectors[i].name, err))
		}
		return out{c: p.C, d: p.D, classes: sched.NumClasses, steps: res.Steps}
	})
	t := stats.NewTable(
		"A5 — ablation: path selection feeding the Theorem 2.1.6 scheduler",
		"selector", "C", "D", "classes", "verified makespan")
	for i, o := range outs {
		t.AddRow(selectors[i].name, o.c, o.d, o.classes, o.steps)
	}
	return []*stats.Table{t}
}

func init() {
	register(Experiment{ID: "A1", Title: "Ablation — arbitration policy", Run: A1Arbitration})
	register(Experiment{ID: "A2", Title: "Ablation — LLL resampling granularity", Run: A2Resample})
	register(Experiment{ID: "A3", Title: "Ablation — drop-on-delay vs blocking", Run: A3Drop})
	register(Experiment{ID: "A4", Title: "Ablation — one-pass vs two-pass", Run: A4Passes})
	register(Experiment{ID: "A5", Title: "Ablation — congestion-aware path selection", Run: A5PathSelection})
}
