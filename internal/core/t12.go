package core

import (
	"fmt"
	"math"

	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// T12 measures the steady-state open-loop regime on the traffic engine:
// each butterfly input injects a continuous Poisson stream of uniform
// messages, and the network is observed at steady state through warmup /
// measurement / drain windows. Two tables come out:
//
//   - latency vs offered load per B — each curve is flat near the
//     contention-free latency until the offered load hits the router's
//     knee, then bends upward as queueing dominates;
//   - saturation rate vs B — the knee location found by deterministic
//     bisection, which grows faster than linearly in B (the open-loop
//     counterpart of the paper's superlinear batch speedup; compare the
//     per-channel column, which would be flat if the benefit were linear).
//
// Every (B, rate) curve point and every per-B saturation search is an
// independent job fanned across the parallel harness.

// T12Row is one latency-vs-load curve point.
type T12Row struct {
	N, B        int
	Offered     float64
	Accepted    float64
	Messages    int
	TrackedDone int // tracked messages with a measured latency
	MeanLat     float64
	P50, P95    float64
	P99         float64
	Saturated   bool
}

// T12SatRow is one saturation-search result.
type T12SatRow struct {
	N, B    int
	SatRate float64
	Probes  int
}

// t12Params bundles the sweep geometry so the curve and search halves
// cannot disagree about scale.
type t12Params struct {
	n          int
	bs         []int
	rates      []float64
	warmup     int
	measure    int
	drain      int
	maxBacklog int
	searchHi   float64
	searchIter int
}

func t12Scale(cfg Config) t12Params {
	p := t12Params{
		n:          64,
		bs:         []int{1, 2, 4, 8},
		rates:      []float64{0.05, 0.10, 0.15, 0.20, 0.30, 0.45, 0.65, 0.90},
		warmup:     256,
		measure:    1024,
		drain:      4096,
		maxBacklog: 16384,
		searchHi:   4,
		searchIter: 12,
	}
	if cfg.Quick {
		p = t12Params{
			n:          16,
			bs:         []int{1, 4},
			rates:      []float64{0.05, 0.20, 0.50},
			warmup:     32,
			measure:    128,
			drain:      512,
			maxBacklog: 2048,
			searchHi:   2,
			searchIter: 6,
		}
	}
	return p
}

func (p t12Params) traffic(cfg Config, b int, rate float64, seed uint64) traffic.Config {
	return traffic.Config{
		Net:             traffic.NewButterflyNet(p.n),
		VirtualChannels: b,
		MessageLength:   topology.Log2(p.n),
		Arbitration:     vcsim.ArbAge,
		Process:         traffic.Poisson,
		Rate:            rate,
		Pattern:         traffic.Uniform,
		Warmup:          p.warmup,
		Measure:         p.measure,
		Drain:           p.drain,
		MaxBacklog:      p.maxBacklog,
		Seed:            seed,
		Metrics:         cfg.metrics(),
	}
}

// T12OpenLoop sweeps latency-vs-load curve points, one job per (B, rate).
func T12OpenLoop(cfg Config) []T12Row {
	p := t12Scale(cfg)
	rows := mapJobs(cfg, len(p.bs)*len(p.rates), func(i int) T12Row {
		b, rate := p.bs[i/len(p.rates)], p.rates[i%len(p.rates)]
		seed := cfg.Seed + uint64(b)*1009 + uint64(rate*1e6)
		res, err := traffic.Run(p.traffic(cfg, b, rate, seed))
		if err != nil {
			panic(fmt.Sprintf("T12: %v", err))
		}
		return T12Row{
			N: p.n, B: b,
			Offered:     rate,
			Accepted:    res.Accepted,
			Messages:    res.Injected,
			TrackedDone: res.TrackedDone,
			MeanLat:     res.MeanLatency,
			P50:         res.P50,
			P95:         res.P95,
			P99:         res.P99,
			Saturated:   res.Saturated,
		}
	})
	return rows
}

// T12Saturation bisects the saturation rate, one job per B.
func T12Saturation(cfg Config) []T12SatRow {
	p := t12Scale(cfg)
	return mapJobs(cfg, len(p.bs), func(i int) T12SatRow {
		b := p.bs[i]
		seed := cfg.Seed + uint64(b)*7919
		sr, err := traffic.SaturationRate(
			p.traffic(cfg, b, 1 /* overwritten per probe */, seed),
			traffic.SearchOptions{Hi: p.searchHi, Iters: p.searchIter})
		if err != nil {
			panic(fmt.Sprintf("T12: saturation search B=%d: %v", b, err))
		}
		return T12SatRow{N: p.n, B: b, SatRate: sr.Rate, Probes: len(sr.Probes)}
	})
}

func t12CurveTable(rows []T12Row) *stats.Table {
	t := stats.NewTable(
		"T12 — open-loop steady state: latency vs offered load (Poisson, uniform)",
		"n", "B", "offered", "accepted", "messages",
		"mean latency", "p50", "p95", "p99", "saturated")
	for _, r := range rows {
		// A point that collapsed before any tracked message completed has
		// no latency sample; render "-" rather than a misleading 0.
		lat := func(v float64) float64 {
			if r.TrackedDone == 0 {
				return math.NaN()
			}
			return v
		}
		t.AddRow(r.N, r.B, r.Offered, r.Accepted, r.Messages,
			lat(r.MeanLat), lat(r.P50), lat(r.P95), lat(r.P99), r.Saturated)
	}
	return t
}

func t12SatTable(rows []T12SatRow) *stats.Table {
	t := stats.NewTable(
		"T12 — saturation rate vs B (bisection on offered load)",
		"n", "B", "sat rate", "vs B=1", "per channel", "probes")
	var base float64
	for _, r := range rows {
		if r.B == 1 {
			base = r.SatRate
		}
	}
	for _, r := range rows {
		t.AddRow(r.N, r.B, r.SatRate, stats.Ratio(r.SatRate, base),
			r.SatRate/float64(r.B), r.Probes)
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "T12",
		Title: "Open-loop steady state — latency-vs-load curves and saturation rate vs B",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{
				t12CurveTable(T12OpenLoop(cfg)),
				t12SatTable(T12Saturation(cfg)),
			}
		},
	})
}
