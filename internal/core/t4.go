package core

import (
	"wormhole/internal/butterfly"
	"wormhole/internal/rng"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/vcsim"
)

// T4Row is one measurement of the Section 3.2 one-pass lower-bound
// experiment.
type T4Row struct {
	N, Q, L, B int
	Steps      float64 // mean greedy one-pass makespan
	Bound      float64 // L·q·l^(1/B)/B
	Ratio      float64 // Steps / Bound (expect Θ(1) across the sweep)
	Collide    int     // measured collision-threshold subset size (−1 if skipped)
	CollidePre float64 // Theorem 3.2.5 predicted size
	MaxPhase   int     // largest phase (Theorem 3.2.6 probe)
}

// T4OnePass routes the paper's random problem (q messages per input to
// uniform outputs) down the butterfly one-pass with greedy blocking
// wormhole routing, and compares the measured time with the Theorem 3.2.1
// lower-bound form. It also probes the two pillars of the proof: the
// collision-threshold subset size (Theorem 3.2.5) and the phase partition
// (Theorem 3.2.6).
func T4OnePass(cfg Config) []T4Row {
	type cell struct{ n, q int }
	cells := []cell{{256, 8}, {1024, 10}}
	bs := []int{1, 2, 3, 4}
	trials := cfg.trials(3, 2)
	if cfg.Quick {
		cells = []cell{{64, 6}}
		bs = []int{1, 2, 4}
	}
	// One job per (cell, B, trial); the expensive collision/phase probes
	// ride on the trial-0 job of each cell, exactly as before.
	type trialOut struct {
		steps      float64
		collide    int
		collidePre float64
		maxPhase   int
	}
	grid := len(cells) * len(bs)
	// The butterflies depend only on the cell list; build each once before
	// the fan-out (read-only afterwards).
	bfs := make([]*topology.Butterfly, len(cells))
	for ci, c := range cells {
		bfs[ci] = topology.NewButterfly(c.n)
	}
	outs := mapJobs(cfg, grid*trials, func(i int) trialOut {
		ci, bi, t := grid3(i, len(bs), trials)
		c, b := cells[ci], bs[bi]
		bf := bfs[ci]
		l := topology.Log2(c.n)
		r := rng.New(cfg.Seed + uint64(t)*104729)
		pairs := butterfly.RandomDestinations(c.n, c.q, r)
		// The first trial's run carries the telemetry and feeds the phase
		// probe below.
		sim := vcsim.Config{VirtualChannels: b}
		if t == 0 {
			sim.Metrics = cfg.metrics()
		}
		res := butterfly.RunOnePass(bf, pairs, l, sim)
		out := trialOut{steps: float64(res.Steps), collide: -1}
		if t == 0 {
			// Collision threshold and phase stats on the first trial
			// only (they are expensive).
			if c.n <= 256 || cfg.Quick {
				out.collide = butterfly.CollisionThreshold(bf, pairs, l, b, 24, 0.95, r)
			}
			out.collidePre = butterfly.TheoreticalCollisionSize(c.n, c.q, l, b)
			out.maxPhase, _ = butterfly.PhasePartition(res.Result, min(l, topology.Log2(c.n)), l)
		}
		return out
	})
	rows := make([]T4Row, 0, grid)
	for ci, c := range cells {
		l := topology.Log2(c.n)
		for bi, b := range bs {
			first := outs[index3(ci, bi, 0, len(bs), trials)]
			var steps float64
			for t := 0; t < trials; t++ {
				steps += outs[index3(ci, bi, t, len(bs), trials)].steps
			}
			steps /= float64(trials)
			bound := butterfly.OnePassBound(c.n, c.q, l, b)
			rows = append(rows, T4Row{
				N: c.n, Q: c.q, L: l, B: b,
				Steps:      steps,
				Bound:      bound,
				Ratio:      stats.Ratio(steps, bound),
				Collide:    first.collide,
				CollidePre: first.collidePre,
				MaxPhase:   first.maxPhase,
			})
		}
	}
	return rows
}

func t4Table(rows []T4Row) *stats.Table {
	t := stats.NewTable(
		"T4 — Theorem 3.2.1: greedy one-pass routing vs the lower-bound shape",
		"n", "q", "L", "B", "steps", "bound Lql^(1/B)/B", "steps/bound",
		"collide-s", "collide-pred", "max-phase")
	for _, r := range rows {
		t.AddRow(r.N, r.Q, r.L, r.B, r.Steps, r.Bound, r.Ratio,
			r.Collide, r.CollidePre, r.MaxPhase)
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "T4",
		Title: "Theorem 3.2.1 — one-pass butterfly lower bound",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{t4Table(T4OnePass(cfg))}
		},
	})
}
