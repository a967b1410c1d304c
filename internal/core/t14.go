package core

import (
	"fmt"
	"math"

	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// T14 is the scale study: the T13 buffer-architecture questions asked at
// butterfly sizes where the paper-scale harness used to be unaffordable.
// Each (B, d) point of a 256-input butterfly (CI scale; -scale 1024 runs
// the documented offline size) carries the same Poisson/uniform open-loop
// workload as T12/T13, producing latency-vs-load curves and bisected
// saturation rates. The sweep leans on the engine work that motivated it:
// arena-backed SoA storage keeps the standing backlog of a 256-wide
// network cheap to step, event-horizon fast-forward skips the idle
// cycles light probes spend waiting for arrivals, and the independent
// (arch, rate) jobs fan out over the parallel job runner.

// T14Arch is one (virtual channels, lane depth) grid point; lanes are
// static (T13 covers the shared-pool axis at n = 64).
type T14Arch struct {
	B, D int
}

func (a T14Arch) label() string { return fmt.Sprintf("B=%d d=%d", a.B, a.D) }

// T14Row is one latency-vs-load curve point.
type T14Row struct {
	N           int
	Arch        T14Arch
	Offered     float64
	Accepted    float64
	Messages    int
	TrackedDone int
	MeanLat     float64
	P50, P95    float64
	P99         float64
	Saturated   bool
}

// T14SatRow is one saturation-search result.
type T14SatRow struct {
	N       int
	Arch    T14Arch
	SatRate float64
	Probes  int
}

// t14Params bundles the sweep geometry so the curve and search halves
// cannot disagree about scale.
type t14Params struct {
	n          int
	archs      []T14Arch
	rates      []float64
	warmup     int
	measure    int
	drain      int
	maxBacklog int
	searchHi   float64
	searchIter int
}

func t14Scale(cfg Config) t14Params {
	p := t14Params{
		n:          256,
		archs:      []T14Arch{{2, 1}, {2, 4}, {4, 1}, {4, 4}},
		rates:      []float64{0.10, 0.30, 0.50},
		warmup:     512,
		measure:    2048,
		drain:      8192,
		maxBacklog: 1 << 16,
		searchHi:   2,
		searchIter: 10,
	}
	if cfg.Scale > 0 {
		n := cfg.Scale
		if n&(n-1) != 0 || n < 8 {
			panic(fmt.Sprintf("T14: -scale %d is not a power-of-two butterfly size ≥ 8", n))
		}
		p.n = n
	}
	if cfg.Quick {
		p.n = 64
		p.rates = []float64{0.10, 0.30}
		p.warmup = 64
		p.measure = 256
		p.drain = 1024
		p.maxBacklog = 4096
		p.searchIter = 6
	}
	return p
}

func (p t14Params) traffic(a T14Arch, rate float64, seed uint64) traffic.Config {
	return traffic.Config{
		Net:             traffic.NewButterflyNet(p.n),
		VirtualChannels: a.B,
		LaneDepth:       a.D,
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
	}
}

// t14Seed derives a per-architecture seed. As in T13, depth does not
// enter the derivation: both depths of one B probe the same arrival
// sample paths, so the depth comparison is like-for-like.
func t14Seed(cfg Config, a T14Arch) uint64 {
	return cfg.Seed + uint64(a.B)*4099
}

// T14OpenLoop sweeps latency-vs-load curve points, one job per
// (architecture, rate).
func T14OpenLoop(cfg Config) []T14Row {
	p := t14Scale(cfg)
	return mapJobs(cfg, len(p.archs)*len(p.rates), func(i int) T14Row {
		a, rate := p.archs[i/len(p.rates)], p.rates[i%len(p.rates)]
		seed := t14Seed(cfg, a) + uint64(rate*1e6)
		tc := p.traffic(a, rate, seed)
		tc.Metrics = cfg.metrics()
		res, err := traffic.Run(tc)
		if err != nil {
			panic(fmt.Sprintf("T14: %s: %v", a.label(), err))
		}
		return T14Row{
			N: p.n, Arch: a,
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
}

// T14Saturation bisects the saturation rate, one job per architecture.
func T14Saturation(cfg Config) []T14SatRow {
	p := t14Scale(cfg)
	return mapJobs(cfg, len(p.archs), func(i int) T14SatRow {
		a := p.archs[i]
		tc := p.traffic(a, 1 /* overwritten per probe */, t14Seed(cfg, a))
		tc.Metrics = cfg.metrics() // probes run sequentially within the job
		sr, err := traffic.SaturationRate(tc,
			traffic.SearchOptions{Hi: p.searchHi, Iters: p.searchIter})
		if err != nil {
			panic(fmt.Sprintf("T14: saturation search %s: %v", a.label(), err))
		}
		return T14SatRow{N: p.n, Arch: a, SatRate: sr.Rate, Probes: len(sr.Probes)}
	})
}

func t14CurveTable(rows []T14Row) *stats.Table {
	t := stats.NewTable(
		"T14 — scale study: latency vs offered load on the wide butterfly (Poisson, uniform)",
		"n", "B", "d", "offered", "accepted", "messages",
		"mean latency", "p95", "p99", "saturated")
	for _, r := range rows {
		lat := func(v float64) float64 {
			if r.TrackedDone == 0 {
				return math.NaN()
			}
			return v
		}
		t.AddRow(r.N, r.Arch.B, r.Arch.D, r.Offered, r.Accepted,
			r.Messages, lat(r.MeanLat), lat(r.P95), lat(r.P99), r.Saturated)
	}
	return t
}

func t14SatTable(rows []T14SatRow) *stats.Table {
	t := stats.NewTable(
		"T14 — scale study: saturation rate over (B, lane depth) (bisection on offered load)",
		"n", "B", "d", "sat rate", "vs d=1", "probes")
	base := map[int]float64{}
	for _, r := range rows {
		if r.Arch.D == 1 {
			base[r.Arch.B] = r.SatRate
		}
	}
	for _, r := range rows {
		t.AddRow(r.N, r.Arch.B, r.Arch.D, r.SatRate,
			stats.Ratio(r.SatRate, base[r.Arch.B]), r.Probes)
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "T14",
		Title: "Scale study — 256-input butterfly (offline: -scale 1024): load curves and saturation over (B, d)",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{
				t14CurveTable(T14OpenLoop(cfg)),
				t14SatTable(T14Saturation(cfg)),
			}
		},
	})
}
