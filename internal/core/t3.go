package core

import (
	"wormhole/internal/butterfly"
	"wormhole/internal/rng"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
)

// T3Row is one measurement of the Section 3.1 algorithm.
type T3Row struct {
	N, Q, L, B int
	Colors     int // Δ
	Rounds     int // rounds actually needed
	Delivered  float64
	FlitSteps  float64 // mean over trials
	Bound      float64
	Speedup    float64 // steps(B=1)/steps(B)
	PredSpeed  float64 // bound(B=1)/bound(B): ≈ B·log^(1−1/B) n
}

// T3QRelation runs the randomized two-pass q-relation algorithm across n,
// q, and B, and confirms the Theorem 3.1.1 shape: all messages delivered
// within the round budget, and running time falling superlinearly in B.
func T3QRelation(cfg Config) []T3Row {
	type cell struct{ n, q int }
	cells := []cell{{256, 1}, {256, 8}, {1024, 1}, {1024, 10}}
	bs := []int{1, 2, 3, 4}
	trials := cfg.trials(3, 2)
	if cfg.Quick {
		cells = []cell{{64, 6}}
		bs = []int{1, 2, 4}
	}
	// Full fan-out: one job per (cell, B, trial). Each trial reseeds from
	// (Seed, trial) alone, so the job grid is embarrassingly parallel.
	type trialOut struct {
		steps, delivered float64
		colors, rounds   int
	}
	grid := len(cells) * len(bs)
	outs := mapJobs(cfg, grid*trials, func(i int) trialOut {
		ci, bi, t := grid3(i, len(bs), trials)
		c, b := cells[ci], bs[bi]
		l := topology.Log2(c.n)
		r := rng.New(cfg.Seed + uint64(t)*7919)
		pairs := butterfly.RandomQRelation(c.n, c.q, r)
		res := butterfly.RunQRelation(pairs, butterfly.Params{
			N: c.n, Q: c.q, L: l, B: b,
		}, r)
		out := trialOut{
			steps:     float64(res.FlitSteps),
			delivered: float64(res.DeliveredMsgs) / float64(res.TotalMessages),
			rounds:    len(res.Rounds),
		}
		if len(res.Rounds) > 0 {
			out.colors = res.Rounds[0].Colors
		}
		return out
	})
	rows := make([]T3Row, 0, grid)
	for ci, c := range cells {
		l := topology.Log2(c.n)
		var baseSteps float64
		for bi, b := range bs {
			var steps, delivered float64
			var colors, rounds int
			for t := 0; t < trials; t++ {
				o := outs[index3(ci, bi, t, len(bs), trials)]
				steps += o.steps
				delivered += o.delivered
				rounds = o.rounds
				colors = o.colors
			}
			steps /= float64(trials)
			delivered /= float64(trials)
			if b == bs[0] {
				baseSteps = steps
			}
			rows = append(rows, T3Row{
				N: c.n, Q: c.q, L: l, B: b,
				Colors:    colors,
				Rounds:    rounds,
				Delivered: delivered,
				FlitSteps: steps,
				Bound:     butterfly.Bound(c.n, c.q, l, b),
				Speedup:   stats.Ratio(baseSteps, steps),
				PredSpeed: stats.Ratio(butterfly.Bound(c.n, c.q, l, bs[0]), butterfly.Bound(c.n, c.q, l, b)),
			})
		}
	}
	return rows
}

func t3Table(rows []T3Row) *stats.Table {
	t := stats.NewTable(
		"T3 — Theorem 3.1.1: randomized two-pass q-relation routing",
		"n", "q", "L", "B", "Δ", "rounds", "delivered", "flit steps",
		"bound", "speedup", "predicted")
	for _, r := range rows {
		t.AddRow(r.N, r.Q, r.L, r.B, r.Colors, r.Rounds, r.Delivered,
			r.FlitSteps, r.Bound, r.Speedup, r.PredSpeed)
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "T3",
		Title: "Theorem 3.1.1 — butterfly q-relation algorithm",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{t3Table(T3QRelation(cfg))}
		},
	})
}
