package core

import (
	"fmt"
	"math"

	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// T13 studies buffer *architecture* under the open-loop steady-state
// engine: at a fixed number of virtual channels B, how much of the
// paper's B-scaling benefit can lane depth buy instead? Each (B, d,
// static-vs-shared) configuration of the 64-input butterfly carries the
// same Poisson/uniform workload as T12, and two tables come out:
//
//   - latency vs offered load per configuration — deeper lanes push the
//     queueing knee to higher loads at the same B, because a blocked worm
//     compresses into its lane storage and releases its upstream edges;
//   - saturation rate over the (B, d, shared) grid — located by the same
//     deterministic bisection as T12. At fixed B the rate is monotone
//     non-decreasing in d (pinned by tests), and the shared pool is
//     compared row-by-row against private lanes of equal total storage.
//
// d = 1 static rows run the paper's rigid-worm model bit-for-bit, so the
// table's first row per B is exactly T12's router; every other row is a
// buffer architecture the paper's model cannot express.

// T13Arch is one buffer-architecture grid point.
type T13Arch struct {
	B, D   int
	Shared bool
}

func (a T13Arch) label() string {
	kind := "static"
	if a.Shared {
		kind = "shared"
	}
	return fmt.Sprintf("B=%d d=%d %s", a.B, a.D, kind)
}

// T13Row is one latency-vs-load curve point.
type T13Row struct {
	N           int
	Arch        T13Arch
	Offered     float64
	Accepted    float64
	Messages    int
	TrackedDone int
	MeanLat     float64
	P50, P95    float64
	P99         float64
	Saturated   bool
}

// T13SatRow is one saturation-search result.
type T13SatRow struct {
	N       int
	Arch    T13Arch
	SatRate float64
	Probes  int
}

// t13Params bundles the sweep geometry so the curve and search halves
// cannot disagree about scale.
type t13Params struct {
	n          int
	bs         []int
	depths     []int
	rates      []float64
	warmup     int
	measure    int
	drain      int
	maxBacklog int
	searchHi   float64
	searchIter int
}

func t13Scale(cfg Config) t13Params {
	p := t13Params{
		n:          64,
		bs:         []int{2, 4},
		depths:     []int{1, 2, 4},
		rates:      []float64{0.10, 0.25, 0.40, 0.60, 0.85},
		warmup:     256,
		measure:    1024,
		drain:      4096,
		maxBacklog: 16384,
		searchHi:   4,
		searchIter: 12,
	}
	if cfg.Quick {
		p = t13Params{
			n:          16,
			bs:         []int{2},
			depths:     []int{1, 2, 4},
			rates:      []float64{0.10, 0.30},
			warmup:     32,
			measure:    128,
			drain:      512,
			maxBacklog: 2048,
			searchHi:   2,
			searchIter: 8,
		}
	}
	return p
}

// archs flattens the (B, d, shared) grid in table order: per B, depths
// ascending, static before shared.
func (p t13Params) archs() []T13Arch {
	out := make([]T13Arch, 0, len(p.bs)*len(p.depths)*2)
	for _, b := range p.bs {
		for _, shared := range []bool{false, true} {
			for _, d := range p.depths {
				out = append(out, T13Arch{B: b, D: d, Shared: shared})
			}
		}
	}
	return out
}

func (p t13Params) traffic(a T13Arch, rate float64, seed uint64) traffic.Config {
	return traffic.Config{
		Net:             traffic.NewButterflyNet(p.n),
		VirtualChannels: a.B,
		LaneDepth:       a.D,
		SharedPool:      a.Shared,
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

// t13Seed derives a per-architecture seed. Depth deliberately does not
// enter the derivation: all depths of one (B, shared) family probe the
// same arrival sample paths, so the depth axis — the one the saturation
// monotonicity claim quantifies over — is compared like-for-like.
func t13Seed(cfg Config, a T13Arch) uint64 {
	s := cfg.Seed + uint64(a.B)*2707
	if a.Shared {
		s += 7127
	}
	return s
}

// T13OpenLoop sweeps latency-vs-load curve points, one job per
// (architecture, rate).
func T13OpenLoop(cfg Config) []T13Row {
	p := t13Scale(cfg)
	archs := p.archs()
	return mapJobs(cfg, len(archs)*len(p.rates), func(i int) T13Row {
		a, rate := archs[i/len(p.rates)], p.rates[i%len(p.rates)]
		seed := t13Seed(cfg, a) + uint64(rate*1e6)
		tc := p.traffic(a, rate, seed)
		tc.Metrics = cfg.metrics()
		res, err := traffic.Run(tc)
		if err != nil {
			panic(fmt.Sprintf("T13: %s: %v", a.label(), err))
		}
		return T13Row{
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

// T13Saturation bisects the saturation rate, one job per architecture.
func T13Saturation(cfg Config) []T13SatRow {
	p := t13Scale(cfg)
	archs := p.archs()
	return mapJobs(cfg, len(archs), func(i int) T13SatRow {
		a := archs[i]
		tc := p.traffic(a, 1 /* overwritten per probe */, t13Seed(cfg, a))
		tc.Metrics = cfg.metrics() // probes run sequentially within the job
		sr, err := traffic.SaturationRate(tc,
			traffic.SearchOptions{Hi: p.searchHi, Iters: p.searchIter})
		if err != nil {
			panic(fmt.Sprintf("T13: saturation search %s: %v", a.label(), err))
		}
		return T13SatRow{N: p.n, Arch: a, SatRate: sr.Rate, Probes: len(sr.Probes)}
	})
}

func t13CurveTable(rows []T13Row) *stats.Table {
	t := stats.NewTable(
		"T13 — buffer architectures: latency vs offered load (Poisson, uniform)",
		"n", "B", "d", "pool", "offered", "accepted", "messages",
		"mean latency", "p95", "p99", "saturated")
	for _, r := range rows {
		lat := func(v float64) float64 {
			if r.TrackedDone == 0 {
				return math.NaN()
			}
			return v
		}
		t.AddRow(r.N, r.Arch.B, r.Arch.D, poolLabel(r.Arch.Shared), r.Offered, r.Accepted,
			r.Messages, lat(r.MeanLat), lat(r.P95), lat(r.P99), r.Saturated)
	}
	return t
}

func t13SatTable(rows []T13SatRow) *stats.Table {
	t := stats.NewTable(
		"T13 — saturation rate over (B, lane depth, pool) (bisection on offered load)",
		"n", "B", "d", "pool", "sat rate", "vs d=1", "per flit buffer", "probes")
	base := map[string]float64{}
	for _, r := range rows {
		if r.Arch.D == 1 {
			base[fmt.Sprintf("%d/%v", r.Arch.B, r.Arch.Shared)] = r.SatRate
		}
	}
	for _, r := range rows {
		t.AddRow(r.N, r.Arch.B, r.Arch.D, poolLabel(r.Arch.Shared), r.SatRate,
			stats.Ratio(r.SatRate, base[fmt.Sprintf("%d/%v", r.Arch.B, r.Arch.Shared)]),
			r.SatRate/float64(r.Arch.B*r.Arch.D), r.Probes)
	}
	return t
}

func poolLabel(shared bool) string {
	if shared {
		return "shared"
	}
	return "static"
}

func init() {
	register(Experiment{
		ID:    "T13",
		Title: "Buffer architectures — lane depth and shared pools: load curves and saturation",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{
				t13CurveTable(T13OpenLoop(cfg)),
				t13SatTable(T13Saturation(cfg)),
			}
		},
	})
}
