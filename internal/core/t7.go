package core

import (
	"wormhole/internal/baseline"
	"wormhole/internal/butterfly"
	"wormhole/internal/rng"
	"wormhole/internal/stats"
)

// T7Row is one cell of the Koch circuit-switching experiment.
type T7Row struct {
	N, B      int
	Fraction  float64 // measured locked fraction (mean over trials)
	Predicted float64 // Θ(1/log^(1/B) n) shape
	Scaled    float64 // Fraction / Predicted — should be ≈ constant per B
}

// T7CircuitSwitch reproduces Koch's observation (paper Section 1.3.3):
// locking circuits down a butterfly with per-edge capacity B succeeds for
// a Θ(1/log^(1/B) n) fraction of random demands — already a superlinear
// benefit from B, which this paper extends to wormhole routing.
func T7CircuitSwitch(cfg Config) []T7Row {
	ns := []int{256, 1024, 4096}
	bs := []int{1, 2, 3, 4}
	trials := cfg.trials(5, 3)
	if cfg.Quick {
		ns = []int{64, 256}
		bs = []int{1, 2, 4}
	}
	// One job per (n, B, trial); each reseeds from (Seed, n, B, trial).
	grid := len(ns) * len(bs)
	fracs := mapJobs(cfg, grid*trials, func(i int) float64 {
		ni, bi, t := grid3(i, len(bs), trials)
		n, b := ns[ni], bs[bi]
		r := rng.New(cfg.Seed + uint64(t)*31 + uint64(n) + uint64(b)*131071)
		pairs := butterfly.RandomDestinations(n, 1, r)
		return baseline.RunCircuitSwitch(n, b, pairs, r).Fraction
	})
	rows := make([]T7Row, 0, grid)
	for ni, n := range ns {
		for bi, b := range bs {
			var frac float64
			for t := 0; t < trials; t++ {
				frac += fracs[index3(ni, bi, t, len(bs), trials)]
			}
			frac /= float64(trials)
			pred := baseline.KochPredictedFraction(n, b)
			rows = append(rows, T7Row{
				N: n, B: b,
				Fraction:  frac,
				Predicted: pred,
				Scaled:    stats.Ratio(frac, pred),
			})
		}
	}
	return rows
}

func t7Table(rows []T7Row) *stats.Table {
	t := stats.NewTable(
		"T7 — Koch: circuit-switching success fraction vs B",
		"n", "B", "locked fraction", "Θ(1/log^(1/B) n)", "fraction/shape")
	for _, r := range rows {
		t.AddRow(r.N, r.B, r.Fraction, r.Predicted, r.Scaled)
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "T7",
		Title: "Koch — circuit switching on the butterfly",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{t7Table(T7CircuitSwitch(cfg))}
		},
	})
}
