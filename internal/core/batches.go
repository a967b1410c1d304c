package core

import (
	"fmt"
	"math"

	"wormhole/internal/analysis"
	"wormhole/internal/baseline"
	"wormhole/internal/butterfly"
	"wormhole/internal/deadlock"
	"wormhole/internal/graph"
	"wormhole/internal/lowerbound"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/routeopt"
	"wormhole/internal/schedule"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// The batch experiments as data for the engine in batch.go. README.md
// carries each one's narrative; a declaration states what it measures
// and the property its tests pin.

func init() {
	registerBatch("F1", "Figure 1 — butterfly topology", f1)
	registerBatch("T1", "Theorem 2.1.6 — schedule length vs B (superlinear speedup)", t1)
	registerBatch("T2", "Theorem 2.2.1 — lower-bound construction & superlinear speedup", t2, t2b)
	registerBatch("T3", "Theorem 3.1.1 — butterfly q-relation algorithm", t3)
	registerBatch("T4", "Theorem 3.2.1 — one-pass butterfly lower bound", t4)
	registerBatch("T5", "Section 1.4 — wormhole vs store-and-forward vs cut-through", t5)
	registerBatch("T6", "Footnote 5 — naive coloring baseline vs LLL schedules", t6)
	registerBatch("T7", "Koch — circuit switching on the butterfly", t7)
	registerBatch("T8", "Section 1.4 — restricted-bandwidth model", t8)
	registerBatch("T9", "Section 1.3.3 — Waksman permutation routing (Beneš/GF-11)", t9)
	registerBatch("T10", "Section 1.3.1 context — continuous injection throughput", t10)
	registerBatch("T11", "Section 1 — Dally–Seitz deadlock avoidance via VC classes", t11)
	registerBatch("A1", "Ablation — arbitration policy", a1)
	registerBatch("A2", "Ablation — LLL resampling granularity", a2)
	registerBatch("A3", "Ablation — drop-on-delay vs blocking", a3)
	registerBatch("A4", "Ablation — one-pass vs two-pass", a4)
	registerBatch("A5", "Ablation — congestion-aware path selection", a5)
}

// pick is the full or the quick value, as cfg asks.
func pick[T any](cfg Config, full, quick T) T {
	if cfg.Quick {
		return quick
	}
	return full
}

// scheduled builds and executes c's Theorem 2.1.6 schedule at c.B.
func scheduled(cfg Config, id string, c cell) (*schedule.Schedule, vcsim.Result) {
	opts := ScheduleOptions{B: c.B, Seed: cfg.Seed + uint64(c.B), Metrics: cfg.metrics()}
	sched, res, err := c.p.RouteScheduled(opts)
	if err != nil {
		panic(fmt.Sprintf("%s: %s B=%d: %v", id, c.p.Label, c.B, err))
	}
	return sched, res
}

// greedyAndScheduled routes p at B greedily and by its schedule.
func greedyAndScheduled(cfg Config, id string, p *Problem, b int, seed uint64) vals {
	greedy := p.RouteGreedy(GreedyOptions{B: b, Policy: vcsim.ArbAge, Metrics: cfg.metrics()})
	if !greedy.AllDelivered() || greedy.Deadlocked {
		panic(fmt.Sprintf("%s: greedy failed on %s B=%d (deadlock=%v)", id, p.Label, b, greedy.Deadlocked))
	}
	_, sched, err := p.RouteScheduled(ScheduleOptions{B: b, Seed: seed, Metrics: cfg.metrics()})
	if err != nil {
		panic(fmt.Sprintf("%s: schedule failed on %s B=%d: %v", id, p.Label, b, err))
	}
	return vals{"greedy": float64(greedy.Steps), "scheduled": float64(sched.Steps)}
}

// F1 — Figure 1: the butterfly's structural identities of Section 1.2
// (n(log n + 1) nodes, 2n·log n edges, log n + 1 levels, unique
// bit-fixing paths).
var f1 = &batch{
	title: "F1 — Figure 1: butterfly structure (n inputs, log n + 1 levels)",
	cells: func(cfg Config) []cell {
		return pick(cfg, []cell{{n: 8}, {n: 64}, {n: 256}}, []cell{{n: 8}, {n: 64}})
	},
	measure: func(cfg Config, c cell, _ int) vals {
		bf := topology.NewButterfly(c.n)
		return vals{
			"nodes":        float64(bf.G.NumNodes()),
			"edges":        float64(bf.G.NumEdges()),
			"levels":       float64(bf.Levels + 1),
			"diameter":     float64(graph.Diameter(bf.G)),
			"leveled DAG":  b2f(graph.IsDAG(bf.G)),
			"unique paths": b2f(butterflyPathsUnique(bf, cfg.Seed)),
		}
	},
	cols: []batchCol{colCellN, count("nodes"), count("edges"), count("levels"),
		count("diameter"), flag("leveled DAG"), flag("unique paths")},
}

// butterflyPathsUnique spot-checks that Route returns the only input→output
// path (the butterfly has exactly one).
func butterflyPathsUnique(bf *topology.Butterfly, seed uint64) bool {
	r := rng.New(seed)
	for trial := 0; trial < 8; trial++ {
		src := r.Intn(bf.Inputs)
		dst := r.Intn(bf.Inputs)
		p := bf.Route(src, dst)
		if len(p) != bf.Levels {
			return false
		}
		sp, ok := graph.ShortestPath(bf.G, bf.Input(src), bf.Output(dst))
		if !ok || len(sp) != len(p) {
			return false
		}
	}
	return true
}

// upper216 is the Theorem 2.1.6 bound on a workload cell at the row's B.
func upper216(r *batchRow) float64 { return schedule.UpperBound216(r.p.L, r.p.C, r.p.D, r.B) }

// T1 — Theorem 2.1.6: the LLL schedule's length falls superlinearly in
// B on the sweep workloads, against the bound's C(D log D)^(1/B)/B
// shape. Pinned: speedup/B > 1 at every B > 1.
var t1 = &batch{
	title:   "T1 — Theorem 2.1.6: LLL schedule length vs virtual channels B",
	cells:   t1Workloads,
	bs:      []int{1, 2, 3, 4, 6},
	quickBs: []int{1, 2, 4},
	measure: func(cfg Config, c cell, _ int) vals {
		sched, res := scheduled(cfg, "T1", c)
		return vals{"classes": float64(sched.NumClasses), "makespan": float64(res.Steps)}
	},
	cols: []batchCol{colWorkload, colProbC, colProbD, colProbL, colCellB, count("classes"),
		count("makespan"), shape("bound", upper216), speedup("speedup", "makespan"),
		predicted("predicted", upper216), perB("speedup/B", "makespan")},
}

func t1Workloads(cfg Config) []cell {
	if cfg.Quick {
		return workloads(cfg,
			func() *Problem { return ButterflyQRelation(64, 8, 24, cfg.Seed) },
			func() *Problem { return RandomRegularWorkload(96, 3, 384, 24, cfg.Seed+1) })
	}
	return workloads(cfg,
		func() *Problem { return ButterflyQRelation(256, 8, 32, cfg.Seed) },
		func() *Problem { return ButterflyQRelation(256, 16, 64, cfg.Seed+1) },
		func() *Problem { return RandomRegularWorkload(256, 3, 2048, 48, cfg.Seed+2) },
		func() *Problem { return LinearHotspot(48, 24, 48) })
}

// T2 — Theorem 2.2.1: the adversarial network, for a sweep of B and
// congestion, routed greedily and by the LLL scheduler. Pinned: no
// measured time beats the progress floor (L−D)·M/B.
var t2 = &batch{
	title: "T2 — Theorem 2.2.1: adversarial instance, every B+1 messages share an edge",
	cells: func(cfg Config) []cell {
		type point struct{ b, cMul, d int }
		grid := pick(cfg, []point{
			{1, 1, 24}, {1, 2, 24}, {1, 4, 24},
			{2, 1, 24}, {2, 2, 24}, {2, 4, 24},
			{3, 1, 24}, {3, 2, 24},
		}, []point{{1, 2, 16}, {2, 2, 16}, {3, 2, 16}})
		cells := make([]cell, len(grid))
		for i, g := range grid {
			cells[i] = cell{B: g.b, adv: lowerbound.Params{
				B: g.b, TargetD: g.d, TargetC: g.cMul * (g.b + 1) * 2, L: 3 * g.d,
			}}
		}
		return cells
	},
	measure: func(cfg Config, c cell, _ int) vals {
		con := lowerbound.Build(c.adv)
		p := NewProblem(fmt.Sprintf("adversary(B=%d)", c.B), con.Set)
		v := greedyAndScheduled(cfg, "T2", p, c.B, cfg.Seed)
		v["M'"], v["msgs"] = float64(con.MPrime), float64(con.Set.Len())
		v["C"], v["D"], v["L"] = float64(con.C), float64(con.D), float64(con.L)
		v["floor(L-D)M/B"], v["LCD^(1/B)/B"] = con.ProgressBound(), con.TheoremBound()
		return v
	},
	cols: []batchCol{colCellB, count("M'"), count("msgs"), count("C"), count("D"), count("L"),
		count("greedy"), count("scheduled"), num("floor(L-D)M/B"), num("LCD^(1/B)/B"),
		{"best/floor", func(r *batchRow) any {
			return stats.Ratio(min(r.mean("greedy"), r.mean("scheduled")), r.mean("floor(L-D)M/B"))
		}}},
}

// T2b — the headline claim on one fixed instance: the B = 1 adversary
// forces Θ(LCD) flit steps with one virtual channel, and adding
// channels speeds routing up by more than the added factor. Pinned: at
// the largest B the speedup is at least B, and the best time never
// rises with B.
var t2b = &batch{
	title: "T2b — superlinear speedup: fixed B=1 adversary, router B swept",
	cells: func(cfg Config) []cell {
		d := pick(cfg, 24, 16)
		con := lowerbound.Build(lowerbound.Params{B: 1, TargetD: d, TargetC: 12, L: 3 * d})
		return []cell{{p: NewProblem("adversary(B=1)", con.Set)}}
	},
	bs:      []int{1, 2, 3, 4, 6},
	quickBs: []int{1, 2, 4},
	measure: func(cfg Config, c cell, _ int) vals {
		v := greedyAndScheduled(cfg, "T2b", c.p, c.B, cfg.Seed+uint64(c.B))
		v["best"] = min(v["greedy"], v["scheduled"])
		return v
	},
	cols: []batchCol{{"router B", colCellB.cell}, count("greedy"), count("scheduled"),
		count("best"), speedup("speedup", "best"), perB("speedup/B", "best"),
		shape("predicted B·D^(1-1/B)", func(r *batchRow) float64 {
			return schedule.PredictedSpeedup(r.p.D, r.B)
		})},
}

// T3 — Theorem 3.1.1: the randomized two-pass q-relation algorithm
// delivers every message within its round budget, in time falling
// superlinearly in B. Δ and rounds are the last trial's. Pinned: all
// delivered, and speedup > 1 at every B > 1.
var t3 = &batch{
	title: "T3 — Theorem 3.1.1: randomized two-pass q-relation routing",
	cells: func(cfg Config) []cell {
		return pick(cfg,
			[]cell{{n: 256, q: 1}, {n: 256, q: 8}, {n: 1024, q: 1}, {n: 1024, q: 10}},
			[]cell{{n: 64, q: 6}})
	},
	bs:          []int{1, 2, 3, 4},
	quickBs:     []int{1, 2, 4},
	trials:      3,
	quickTrials: 2,
	measure: func(cfg Config, c cell, t int) vals {
		r := rng.New(cfg.Seed + uint64(t)*7919)
		pairs := butterfly.RandomQRelation(c.n, c.q, r)
		params := butterfly.Params{N: c.n, Q: c.q, L: topology.Log2(c.n), B: c.B}
		res := butterfly.RunQRelation(pairs, params, r)
		v := vals{
			"rounds":     float64(len(res.Rounds)),
			"Δ":          0,
			"delivered":  float64(res.DeliveredMsgs) / float64(res.TotalMessages),
			"flit steps": float64(res.FlitSteps),
		}
		if len(res.Rounds) > 0 {
			v["Δ"] = float64(res.Rounds[0].Colors)
		}
		return v
	},
	cols: []batchCol{colCellN, colCellQ, colLogN, colCellB, lastCount("Δ"), lastCount("rounds"),
		num("delivered"), num("flit steps"), shape("bound", t3Bound),
		speedup("speedup", "flit steps"), predicted("predicted", t3Bound)},
}

func t3Bound(r *batchRow) float64 { return butterfly.Bound(r.n, r.q, topology.Log2(r.n), r.B) }

// T4 — Theorem 3.2.1: greedy one-pass routing of the paper's random
// problem against the lower-bound form, with the proof's two pillars
// probed on trial 0 (they are expensive): the collision-threshold
// subset size (Theorem 3.2.5) and the phase partition (Theorem 3.2.6).
// Pinned: steps never rise with B.
var t4 = &batch{
	title: "T4 — Theorem 3.2.1: greedy one-pass routing vs the lower-bound shape",
	cells: func(cfg Config) []cell {
		return pick(cfg, []cell{{n: 256, q: 8}, {n: 1024, q: 10}}, []cell{{n: 64, q: 6}})
	},
	bs:          []int{1, 2, 3, 4},
	quickBs:     []int{1, 2, 4},
	trials:      3,
	quickTrials: 2,
	measure: func(cfg Config, c cell, t int) vals {
		bf := topology.NewButterfly(c.n)
		l := topology.Log2(c.n)
		r := rng.New(cfg.Seed + uint64(t)*104729)
		pairs := butterfly.RandomDestinations(c.n, c.q, r)
		sim := vcsim.Config{VirtualChannels: c.B}
		if t == 0 {
			sim.Metrics = cfg.metrics()
		}
		res := butterfly.RunOnePass(bf, pairs, l, sim)
		v := vals{"steps": float64(res.Steps)}
		if t == 0 {
			v["collide-s"] = -1
			if c.n <= 256 || cfg.Quick {
				v["collide-s"] = float64(butterfly.CollisionThreshold(bf, pairs, l, c.B, 24, 0.95, r))
			}
			v["collide-pred"] = butterfly.TheoreticalCollisionSize(c.n, c.q, l, c.B)
			maxPhase, _ := butterfly.PhasePartition(res.Result, l, l)
			v["max-phase"] = float64(maxPhase)
		}
		return v
	},
	cols: []batchCol{colCellN, colCellQ, colLogN, colCellB, num("steps"),
		shape("bound Lql^(1/B)/B", t4Bound),
		{"steps/bound", func(r *batchRow) any { return stats.Ratio(r.mean("steps"), t4Bound(r)) }},
		count("collide-s"), num("collide-pred"), count("max-phase")},
}

func t4Bound(r *batchRow) float64 { return butterfly.OnePassBound(r.n, r.q, topology.Log2(r.n), r.B) }

// T5 — Section 1.4, on an L = q = log n butterfly workload: wormhole
// routing with B virtual channels, greedy and scheduled; store-and-
// forward, whose buffers hold whole messages; and virtual cut-through
// spending the wormhole router's buffer budget on depth instead of
// multiplexing. SAF is fast but needs whole-message buffers, VCT's
// benefit is linear in B, and wormhole with B channels closes most of
// the SAF gap with log-size buffers. A cell's mode is its router
// family. Pinned: SAF beats scheduled wormhole at B = 1, with a larger
// buffer budget.
const (
	t5Greedy = iota
	t5Scheduled
	t5SAF
	t5LMR // store-and-forward with LMR delay smoothing: certified collision-free
	t5VCT
)

var t5 = &batch{
	title: "T5 — Section 1.4: router comparison at L = q = log n",
	cells: func(cfg Config) []cell {
		n := pick(cfg, 256, 64)
		k := topology.Log2(n)
		p := ButterflyQRelation(n, k, k, cfg.Seed)
		bs := []int{1, 2, 2 * topology.Log2(k)}
		var cells []cell
		for _, b := range bs {
			cells = append(cells,
				cell{label: fmt.Sprintf("wormhole greedy B=%d", b), B: b, p: p, mode: t5Greedy},
				cell{label: fmt.Sprintf("wormhole LLL-scheduled B=%d", b), B: b, p: p, mode: t5Scheduled})
		}
		cells = append(cells,
			cell{label: "store-and-forward greedy", p: p, mode: t5SAF},
			cell{label: "store-and-forward LMR-scheduled", p: p, mode: t5LMR})
		for _, b := range bs[1:] {
			cells = append(cells, cell{label: fmt.Sprintf("virtual cut-through buf=%d", b), B: b, p: p, mode: t5VCT})
		}
		return cells
	},
	measure: func(cfg Config, c cell, _ int) vals {
		p, buf, v := c.p, c.B, vals{}
		var steps int
		var delivered bool
		switch c.mode {
		case t5Greedy:
			res := p.RouteGreedy(GreedyOptions{B: c.B, Policy: vcsim.ArbAge, Metrics: cfg.metrics()})
			steps, delivered = res.Steps, res.AllDelivered()
		case t5Scheduled:
			_, res, err := p.RouteScheduled(ScheduleOptions{B: c.B, Seed: cfg.Seed, Metrics: cfg.metrics()})
			if err != nil {
				panic(fmt.Sprintf("T5: scheduled B=%d: %v", c.B, err))
			}
			steps, delivered = res.Steps, res.AllDelivered()
		case t5SAF:
			res := baseline.RunStoreAndForward(p.Set)
			buf, steps, delivered = baseline.SAFFlitBufferBudget(res, p.L), res.FlitSteps, res.Delivered == p.Set.Len()
		case t5LMR:
			lmr, err := baseline.BuildLMRSchedule(p.Set, rng.New(cfg.Seed))
			if err != nil {
				panic(fmt.Sprintf("T5: LMR schedule: %v", err))
			}
			// Unimpeded motion: one message per node at a time.
			buf, steps, delivered = p.L, baseline.LMRFlitSteps(lmr, p.L), true
			v["window"], v["attempts"] = float64(lmr.Window), float64(lmr.Attempts)
		case t5VCT:
			res := baseline.RunVirtualCutThrough(p.Set, baseline.VCTConfig{BufferFlits: c.B})
			steps, delivered = res.Steps, res.Delivered == p.Set.Len() && !res.Deadlocked
		}
		v["buffer flits/edge"], v["flit steps"], v["all delivered"] = float64(buf), float64(steps), b2f(delivered)
		return v
	},
	cols: []batchCol{colLabel("method"), count("buffer flits/edge"), count("flit steps"), flag("all delivered"),
		{"note", func(r *batchRow) any {
			switch r.mode {
			case t5SAF:
				return "bound L(C+D)=" + stats.FormatFloat(schedule.StoreAndForwardBound(r.p.L, r.p.C, r.p.D))
			case t5LMR:
				return fmt.Sprintf("window=%d attempts=%d", int(r.mean("window")), int(r.mean("attempts")))
			}
			return ""
		}}},
}

// T6 — footnote 5: the naive conflict-graph coloring needs up to
// D(C−1)+1 classes and O((L+D)·C·D) flit steps where the Theorem 2.1.6
// refinement needs Θ(C(D log D)^(1/B)/B) classes; both schedules are
// executed and verified. The naive schedule does not depend on B, so
// the first B's job measures it for the whole cell.
var t6 = &batch{
	title:   "T6 — footnote 5: naive conflict-graph coloring vs LLL refinement",
	cells:   t1Workloads,
	bs:      []int{1, 2, 4},
	quickBs: []int{1, 2, 4},
	measure: func(cfg Config, c cell, _ int) vals {
		v := vals{}
		if c.B == 1 {
			naive := schedule.NaiveSchedule(c.p.Set)
			res, err := schedule.VerifyObserved(c.p.Set, naive, cfg.metrics())
			if err != nil {
				panic(fmt.Sprintf("T6: naive schedule invalid on %s: %v", c.p.Label, err))
			}
			v["naive-classes"], v["naive-steps"] = float64(naive.NumClasses), float64(res.Steps)
		}
		sched, res := scheduled(cfg, "T6", c)
		v["LLL-classes"], v["LLL-steps"] = float64(sched.NumClasses), float64(res.Steps)
		return v
	},
	cols: []batchCol{colWorkload, colProbC, colProbD, colProbL, colCellB,
		{"naive-classes", func(r *batchRow) any { return int(r.first.mean("naive-classes")) }},
		{"naive-steps", func(r *batchRow) any { return int(r.first.mean("naive-steps")) }},
		count("LLL-classes"), count("LLL-steps"),
		{"naive/LLL", func(r *batchRow) any {
			return stats.Ratio(r.first.mean("naive-steps"), r.mean("LLL-steps"))
		}},
		shape("naive-bound", func(r *batchRow) float64 {
			return schedule.NaiveBound(r.p.L, r.p.C, r.p.D)
		}),
		shape("LLL-bound", upper216)},
}

// T7 — Koch (Section 1.3.3): locking circuits down a butterfly with
// per-edge capacity B succeeds for a Θ(1/log^(1/B) n) fraction of random
// demands, already a superlinear benefit from B. Pinned: the fraction
// never falls as B grows.
var t7 = &batch{
	title: "T7 — Koch: circuit-switching success fraction vs B",
	cells: func(cfg Config) []cell {
		return pick(cfg, []cell{{n: 256}, {n: 1024}, {n: 4096}}, []cell{{n: 64}, {n: 256}})
	},
	bs:          []int{1, 2, 3, 4},
	quickBs:     []int{1, 2, 4},
	trials:      5,
	quickTrials: 3,
	measure: func(cfg Config, c cell, t int) vals {
		r := rng.New(cfg.Seed + uint64(t)*31 + uint64(c.n) + uint64(c.B)*131071)
		pairs := butterfly.RandomDestinations(c.n, 1, r)
		return vals{"locked fraction": baseline.RunCircuitSwitch(c.n, c.B, pairs, r).Fraction}
	},
	cols: []batchCol{colCellN, colCellB, num("locked fraction"),
		shape("Θ(1/log^(1/B) n)", kochShape),
		{"fraction/shape", func(r *batchRow) any {
			return stats.Ratio(r.mean("locked fraction"), kochShape(r))
		}}},
}

func kochShape(r *batchRow) float64 { return baseline.KochPredictedFraction(r.n, r.B) }

// T8 — the Section 1.4 remark: with B-deep buffers but one flit per
// physical edge per step, the virtual-channel schedules are emulated
// with a slowdown of at most ≈ B, so buffering alone still buys a
// (D log D)^(1−1/B)-ish improvement. Pinned: restricted is never faster
// than the full model, the emulation factor stays ≤ B+1, and the gain
// over B = 1 exceeds 1.
var t8 = &batch{
	title: "T8 — Section 1.4 remark: restricted bandwidth (buffering-only benefit)",
	cells: func(cfg Config) []cell {
		if cfg.Quick {
			return workloads(cfg, func() *Problem { return ButterflyQRelation(64, 8, 24, cfg.Seed) })
		}
		return workloads(cfg,
			func() *Problem { return ButterflyQRelation(256, 8, 32, cfg.Seed) },
			func() *Problem { return ButterflyQRelation(256, 16, 64, cfg.Seed+1) })
	},
	bs:      []int{1, 2, 3, 4},
	quickBs: []int{1, 2, 4},
	measure: func(cfg Config, c cell, _ int) vals {
		_, vres := scheduled(cfg, "T8", c)
		// Restricted model: same coloring, spacing stretched ×B so a
		// class can drain at 1 flit/edge/step before the next starts.
		_, rres, err := c.p.RouteScheduled(ScheduleOptions{
			B: c.B, Seed: cfg.Seed + uint64(c.B),
			Restricted:    true,
			SpacingFactor: c.B,
			Metrics:       cfg.metrics(),
		})
		if err != nil {
			panic(fmt.Sprintf("T8: restricted schedule failed: %v", err))
		}
		return vals{"vc-steps": float64(vres.Steps), "restricted-steps": float64(rres.Steps)}
	},
	cols: []batchCol{colWorkload, colProbC, colProbD, colProbL, colCellB,
		count("vc-steps"), count("restricted-steps"),
		ratio("restricted/vc", "restricted-steps", "vc-steps"),
		speedup("gain vs B=1", "restricted-steps"),
		shape("(DlogD)^(1-1/B)", func(r *batchRow) float64 {
			return math.Pow(float64(r.p.D)*math.Log2(float64(max(r.p.D, 2))), 1-1/float64(r.B))
		})},
}

// T9 — Section 1.3.3, as on the IBM GF-11: Waksman's looping algorithm
// finds edge-disjoint paths for any permutation through a Beneš
// network, so wormhole routing takes exactly L + 2·log n − 1 flit steps
// with zero stalls and one virtual channel; a greedy one-pass butterfly
// router on the same permutation is shown for contrast. Pinned: every
// row optimal and stall-free, and never slower than the butterfly.
var t9 = &batch{
	title: "T9 — Waksman on the Beneš network: any permutation in L+2·log n−1 flit steps",
	cells: func(cfg Config) []cell {
		return pick(cfg,
			[]cell{{n: 64, l: 6}, {n: 64, l: 24}, {n: 256, l: 8}, {n: 256, l: 32}, {n: 1024, l: 10}},
			[]cell{{n: 32, l: 5}, {n: 64, l: 24}})
	},
	measure: func(cfg Config, c cell, _ int) vals {
		perm := rng.New(cfg.Seed + uint64(c.n)).Perm(c.n)

		bn := topology.NewBenes(c.n)
		set := message.NewSet(bn.G)
		for a, p := range bn.RoutePermutation(perm) {
			set.Add(bn.Inputs[a], bn.Outputs[perm[a]], c.l, p)
		}
		res := vcsim.Run(set, nil, vcsim.Config{VirtualChannels: 1, Metrics: cfg.metrics()})
		if !res.AllDelivered() {
			panic(fmt.Sprintf("T9: Waksman routing failed on n=%d", c.n))
		}

		bf := topology.NewButterfly(c.n)
		bfSet := message.NewSet(bf.G)
		for src, dst := range perm {
			bfSet.Add(bf.Input(src), bf.Output(dst), c.l, bf.Route(src, dst))
		}
		bfRes := vcsim.Run(bfSet, nil, vcsim.Config{
			VirtualChannels: 1, Arbitration: vcsim.ArbAge, Metrics: cfg.metrics(),
		})
		if !bfRes.AllDelivered() {
			panic("T9: butterfly greedy failed")
		}
		return vals{
			"depth":                float64(bn.Depth),
			"Beneš steps":          float64(res.Steps),
			"optimal&stall-free":   b2f(res.Steps == c.l+bn.Depth-1 && res.TotalStalls == 0),
			"stalls":               float64(res.TotalStalls),
			"greedy butterfly B=1": float64(bfRes.Steps),
		}
	},
	cols: []batchCol{colCellN, {"L", func(r *batchRow) any { return r.l }}, count("depth"),
		count("Beneš steps"), flag("optimal&stall-free"), count("stalls"),
		count("greedy butterfly B=1"), ratio("speedup", "greedy butterfly B=1", "Beneš steps")},
}

// T10 — the continuous-routing regime the paper cites (Scheideler–
// Vöcking, Section 1.3.1): messages arrive at each butterfly input as a
// Poisson process and are routed greedily on the internal/traffic
// open-loop engine (uniform pattern, no warmup, full drain; T12 is the
// steady-state treatment). Latency stays flat until the router
// saturates, and the sustainable rate grows with B faster than
// linearly, mirroring the D^(1/B) factor in the cited bound: context,
// not a theorem. A cell is one (B, rate) point. Pinned: latency never
// falls sharply as the rate rises, and B = 4 is never much slower than
// B = 1.
var t10 = &batch{
	title: "T10 — continuous Poisson injection: latency vs rate vs B",
	cells: func(cfg Config) []cell {
		// Offered load per input in flits/step is rate·L; with L = log n
		// the top rate pushes the B = 1 router past its knee.
		n, rates := pick(cfg, 64, 32), pick(cfg, []float64{0.02, 0.05, 0.1, 0.15, 0.25}, []float64{0.02, 0.1})
		var cells []cell
		for _, b := range pick(cfg, []int{1, 2, 4}, []int{1, 4}) {
			for _, rate := range rates {
				cells = append(cells, cell{B: b, n: n, rate: rate})
			}
		}
		return cells
	},
	measure: func(cfg Config, c cell, _ int) vals {
		horizon, l := pick(cfg, 2048, 512), topology.Log2(c.n)
		res, err := traffic.Run(traffic.Config{
			Net:             traffic.NewButterflyNet(c.n),
			VirtualChannels: c.B,
			MessageLength:   l,
			Arbitration:     vcsim.ArbAge,
			Process:         traffic.Poisson,
			Rate:            c.rate,
			Pattern:         traffic.Uniform,
			Measure:         horizon, // no warmup: every message is tracked
			Drain:           horizon * 16,
			Seed:            cfg.Seed + uint64(c.B)*1009 + uint64(c.rate*1e6),
			Metrics:         cfg.metrics(),
			OnStep:          cfg.onStep(),
		})
		if err != nil {
			panic(fmt.Sprintf("T10: %v", err))
		}
		if res.Injected == 0 {
			panic(fmt.Sprintf("T10: B=%d rate %v injected nothing", c.B, c.rate))
		}
		if res.Backlog > 0 {
			panic("T10: open-loop run failed to drain")
		}
		// Makespan − last arrival − (D+L−1): the queueing backlog. Past a
		// quarter of the horizon, the rate is unsustainable.
		overrun := res.Steps - res.LastRelease - (l + l - 1)
		return vals{
			"messages":      float64(res.Injected),
			"mean latency":  res.MeanLatency,
			"p95 latency":   res.P95,
			"drain overrun": float64(overrun),
			"saturated":     b2f(overrun > horizon/4),
		}
	},
	cols: []batchCol{colCellN, colCellB, {"rate/input", func(r *batchRow) any { return r.rate }},
		count("messages"), num("mean latency"), num("p95 latency"), count("drain overrun"), flag("saturated")},
}

// T11 — the paper's Section 1 motivation: on a wormhole ring wrapping
// worms deadlock; anonymous B-slot buffers only postpone it to higher
// pressure; the Dally–Seitz classes (switch class at a dateline) make
// the channel dependency graph acyclic and never deadlock, with the
// anonymous B = 2 router's buffer budget. A cell's q is its worms per
// node (0: two opposed worms) and its mode the ring's VC classes.
// Pinned: that separation, discipline by discipline.
var t11 = &batch{
	title: "T11 — Dally–Seitz: structured vs anonymous virtual channels on a ring",
	cells: func(cfg Config) []cell {
		n := pick(cfg, 8, 6)
		var cells []cell
		for _, waves := range append([]int{0}, pick(cfg, []int{1, 2, 4}, []int{1, 2})...) {
			cells = append(cells,
				cell{label: "plain B=1", B: 1, n: n, q: waves, mode: 1},
				cell{label: "anonymous B=2", B: 2, n: n, q: waves, mode: 1},
				cell{label: "dateline 2 classes", B: 1, n: n, q: waves, mode: 2})
		}
		return cells
	},
	measure: func(cfg Config, c cell, _ int) vals {
		starts := []int{0, c.n / 2}
		if c.q > 0 {
			starts = nil
			for rep := 0; rep < c.q; rep++ {
				for s := 0; s < c.n; s++ {
					starts = append(starts, s)
				}
			}
		}
		// Worms of length n+2 pin their whole path once they wrap.
		set := deadlock.NewRing(c.n, c.mode).SparseWorkload(starts, c.n-1, c.n+2)
		res := vcsim.Run(set, nil, vcsim.Config{VirtualChannels: c.B, Metrics: cfg.metrics()})
		return vals{
			"dep. acyclic": b2f(analysis.ChannelDependencyAcyclic(set)),
			"deadlocked":   b2f(res.Deadlocked),
			"delivered":    float64(res.Delivered),
			"messages":     float64(set.Len()),
			"steps":        float64(res.Steps),
		}
	},
	cols: []batchCol{{"ring", colCellN.cell}, colLabel("discipline"), {"waves", colCellQ.cell},
		flag("dep. acyclic"), flag("deadlocked"), count("delivered"), count("messages"), count("steps")},
}

// A1 — does the one-pass lower-bound shape (T4) depend on the router's
// arbitration policy?
var a1Policies = []vcsim.Policy{vcsim.ArbByID, vcsim.ArbRandom, vcsim.ArbAge}

var a1 = &batch{
	title: "A1 — ablation: arbitration policy on greedy one-pass routing",
	cells: func(cfg Config) []cell {
		n, q := pick(cfg, 256, 64), pick(cfg, 8, 6)
		var cells []cell
		for _, b := range []int{1, 2, 4} {
			for m, pol := range a1Policies {
				cells = append(cells, cell{label: pol.String(), B: b, n: n, q: q, mode: m})
			}
		}
		return cells
	},
	measure: func(cfg Config, c cell, _ int) vals {
		pairs := butterfly.RandomDestinations(c.n, c.q, rng.New(cfg.Seed))
		res := butterfly.RunOnePass(topology.NewButterfly(c.n), pairs, topology.Log2(c.n),
			vcsim.Config{VirtualChannels: c.B, Arbitration: a1Policies[c.mode], Seed: cfg.Seed})
		return vals{"steps": float64(res.Steps), "stalls": float64(res.TotalStalls)}
	},
	cols: []batchCol{colLabel("policy"), colCellB, count("steps"), count("stalls")},
}

// modes gives each B in {1, 2, 4} the named variants in order; a
// cell's mode is its variant's index, and every cell shares w.
func modes(w cell, names ...string) []cell {
	var cells []cell
	for _, b := range []int{1, 2, 4} {
		for m, name := range names {
			c := w
			c.label, c.B, c.mode = name, b, m
			cells = append(cells, c)
		}
	}
	return cells
}

// A2 — whole-refinement rejection sampling against violated-class-only
// (Moser–Tardos style) resampling in the LLL scheduler.
var a2 = &batch{
	title: "A2 — ablation: resampling granularity in the LLL scheduler",
	cells: func(cfg Config) []cell {
		p := ButterflyQRelation(64, 8, 24, cfg.Seed)
		if !cfg.Quick {
			p = ButterflyQRelation(256, 16, 48, cfg.Seed)
		}
		return modes(cell{p: p}, "violated-only", "whole")
	},
	measure: func(cfg Config, c cell, _ int) vals {
		sched, err := schedule.Build(c.p.Set, schedule.Options{
			B:             c.B,
			ConstantScale: constantScale,
			ResampleWhole: c.mode == 1,
		}, rng.New(cfg.Seed))
		if err != nil {
			panic(fmt.Sprintf("A2: %v", err))
		}
		v := vals{"classes": float64(sched.NumClasses), "attempts": 0, "escalated": 0}
		for _, st := range sched.Steps {
			v["attempts"] += float64(st.Attempts)
			if st.Escalated {
				v["escalated"] = 1
			}
		}
		return v
	},
	cols: []batchCol{colLabel("mode"), colCellB, count("classes"), count("attempts"), flag("escalated")},
}

// A3 — drop-on-delay against blocking within one subround batch:
// dropping loses messages but finishes in exactly 2·log n + L − 1
// steps; blocking delivers everything but stretches the makespan.
var a3 = &batch{
	title: "A3 — ablation: drop-on-delay vs blocking for one subround batch",
	cells: func(cfg Config) []cell {
		n, q := pick(cfg, 256, 64), 8
		tp := topology.NewTwoPassButterfly(n)
		r := rng.New(cfg.Seed)
		routes := make([]butterfly.TwoPassRoute, 0, n*q)
		for src := 0; src < n; src++ {
			for j := 0; j < q; j++ {
				routes = append(routes, butterfly.TwoPassRoute{Src: src, Mid: r.Intn(n), Dst: r.Intn(n)})
			}
		}
		p := NewProblem("two-pass subround", butterfly.TwoPassPathEndpoints(tp, routes, topology.Log2(n)))
		return modes(cell{p: p}, "drop-on-delay", "blocking")
	},
	measure: func(cfg Config, c cell, _ int) vals {
		res := vcsim.Run(c.p.Set, nil, vcsim.Config{
			VirtualChannels: c.B, DropOnDelay: c.mode == 0,
			Arbitration: vcsim.ArbRandom, Seed: cfg.Seed,
			Metrics: cfg.metrics(),
		})
		return vals{
			"delivered": float64(res.Delivered),
			"dropped":   float64(res.Dropped),
			"steps":     float64(res.Steps),
		}
	},
	cols: []batchCol{colLabel("mode"), colCellB, count("delivered"), count("dropped"), count("steps")},
}

// A4 — one-pass against two-pass routing at equal hardware on the
// bit-reversal permutation, the classic adversary of bit-fixing:
// Valiant's random intermediate destinations spread its hotspot. Each
// cell draws from its own source, split from the seed in cell order.
var a4 = &batch{
	title: "A4 — ablation: one-pass vs two-pass delivery on bit-reversal",
	cells: func(cfg Config) []cell {
		cells := modes(cell{n: pick(cfg, 256, 64)}, "one-pass", "two-pass")
		for i, r := range jobSources(cfg.Seed, len(cells)) {
			cells[i].r = r
		}
		return cells
	},
	measure: func(cfg Config, c cell, _ int) vals {
		k := topology.Log2(c.n)
		pairs := make([]butterfly.ColPair, c.n)
		for w := range pairs {
			rev := 0
			for b := 0; b < k; b++ {
				if w&(1<<b) != 0 {
					rev |= 1 << (k - 1 - b)
				}
			}
			pairs[w] = butterfly.ColPair{Src: w, Dst: rev}
		}
		var survivors []int
		if c.mode == 0 {
			survivors = butterfly.RunLockstepOnePass(c.n, c.B, pairs, butterfly.ArbRandom, c.r)
		} else {
			routes := make([]butterfly.TwoPassRoute, c.n)
			for j, p := range pairs {
				routes[j] = butterfly.TwoPassRoute{Src: p.Src, Mid: c.r.Intn(c.n), Dst: p.Dst}
			}
			survivors = butterfly.RunLockstepSubround(c.n, c.B, routes, butterfly.ArbRandom, c.r)
		}
		return vals{"survivors": float64(len(survivors))}
	},
	cols: []batchCol{colLabel("mode"), colCellB, count("survivors"),
		{"fraction", func(r *batchRow) any { return r.mean("survivors") / float64(r.n) }}},
}

// A5 — congestion-aware path selection (the Srinivasan–Teo theme the
// paper cites) end to end: lower C feeds straight through the Theorem
// 2.1.6 scheduler into shorter verified schedules.
var a5 = &batch{
	title: "A5 — ablation: path selection feeding the Theorem 2.1.6 scheduler",
	cells: func(cfg Config) []cell {
		side, msgs := pick(cfg, 16, 8), pick(cfg, 512, 96)
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
			if src != dst {
				pairs = append(pairs, message.Endpoints{Src: src, Dst: dst})
			}
		}
		l := 2 * side
		cells := workloads(cfg,
			func() *Problem {
				return NewProblem("BFS shortest paths", message.Build(m.G, pairs, l, message.ShortestPathRouter(m.G)))
			},
			func() *Problem { return NewProblem("greedy min-max", routeopt.GreedyMinMax(m.G, pairs, l)) },
			func() *Problem {
				set := message.Build(m.G, pairs, l, message.ShortestPathRouter(m.G))
				routeopt.Rebalance(set)
				return NewProblem("BFS + rebalance", set)
			})
		for i := range cells {
			cells[i].B = 2
		}
		return cells
	},
	measure: func(cfg Config, c cell, _ int) vals {
		sched, res, err := c.p.RouteScheduled(ScheduleOptions{B: c.B, Seed: cfg.Seed, Metrics: cfg.metrics()})
		if err != nil {
			panic(fmt.Sprintf("A5 %s: %v", c.p.Label, err))
		}
		return vals{"classes": float64(sched.NumClasses), "verified makespan": float64(res.Steps)}
	},
	cols: []batchCol{{"selector", colWorkload.cell}, colProbC, colProbD,
		count("classes"), count("verified makespan")},
}
