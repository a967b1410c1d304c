package core

import (
	"fmt"
	"math"

	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// T15 is the scale study: the T14 open-loop questions asked on a
// 1024-input butterfly (CI scale; -scale 4096 runs the documented
// offline size). The Poisson/uniform open-loop workload is carried
// across the knee into deep saturation, where the standing backlog
// holds on the order of a million flits in flight. The (B, rate) points
// are independent jobs, so -workers is the parallel axis, as everywhere
// else.
//
// Unlike T12–T14 there is no saturation bisection half — at this scale
// the load curve already brackets the knee, and CI wall clock goes to
// the deep-saturation points instead.

// T15Row is one latency-vs-load curve point.
type T15Row struct {
	N           int
	B           int
	Offered     float64
	Accepted    float64
	Messages    int
	TrackedDone int
	MeanLat     float64
	P50, P95    float64
	P99         float64
	Backlog     int // messages still in flight when the run stopped
	Saturated   bool
}

// t15Params bundles the sweep geometry.
type t15Params struct {
	n          int
	bs         []int
	rates      []float64
	warmup     int
	measure    int
	drain      int
	maxBacklog int
}

func t15Scale(cfg Config) t15Params {
	p := t15Params{
		n:          1024,
		bs:         []int{2, 4},
		rates:      []float64{0.10, 0.25, 0.40},
		warmup:     256,
		measure:    1024,
		drain:      16384,
		maxBacklog: 1 << 20,
	}
	if cfg.Scale > 0 {
		n := cfg.Scale
		if n&(n-1) != 0 || n < 256 {
			panic(fmt.Sprintf("T15: -scale %d is not a power-of-two butterfly size ≥ 256", n))
		}
		p.n = n
	}
	if cfg.Quick {
		// Quick keeps the full 1024-input network — the point of T15 is
		// the scale — and shrinks only the observation windows.
		p.rates = []float64{0.25, 0.40}
		p.bs = []int{2}
		p.warmup = 64
		p.measure = 192
		p.drain = 2048
		p.maxBacklog = 1 << 18
	}
	return p
}

func (p t15Params) traffic(b int, rate float64, seed uint64) traffic.Config {
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
	}
}

// t15Seed matches the T12/T14 convention: per-B seeds so every rate of
// one B probes the same arrival sample paths.
func t15Seed(cfg Config, b int) uint64 {
	return cfg.Seed + uint64(b)*8209
}

// T15OpenLoop sweeps latency-vs-load curve points, one job per
// (B, rate), fanned across the harness workers as usual.
func T15OpenLoop(cfg Config) []T15Row {
	p := t15Scale(cfg)
	return mapJobs(cfg, len(p.bs)*len(p.rates), func(i int) T15Row {
		b, rate := p.bs[i/len(p.rates)], p.rates[i%len(p.rates)]
		tc := p.traffic(b, rate, t15Seed(cfg, b)+uint64(rate*1e6))
		tc.Metrics = cfg.metrics()
		res, err := traffic.Run(tc)
		if err != nil {
			panic(fmt.Sprintf("T15: B=%d rate=%g: %v", b, rate, err))
		}
		return T15Row{
			N: p.n, B: b,
			Offered:     rate,
			Accepted:    res.Accepted,
			Messages:    res.Injected,
			TrackedDone: res.TrackedDone,
			MeanLat:     res.MeanLatency,
			P50:         res.P50,
			P95:         res.P95,
			P99:         res.P99,
			Backlog:     res.Backlog,
			Saturated:   res.Saturated,
		}
	})
}

func t15CurveTable(rows []T15Row) *stats.Table {
	// The title is frozen verbatim: benchmark/'s tables-quick golden
	// digest hashes `wormbench -all -quick -csv` stdout, title lines
	// included. Reword it (the stepper it names is gone) at the next
	// benchmark PR (ROADMAP, frozen-surface shims).
	t := stats.NewTable(
		"T15 — parallel scale study: latency vs offered load on the sharded wide butterfly (Poisson, uniform)",
		"n", "B", "offered", "accepted", "messages",
		"mean latency", "p95", "p99", "backlog", "saturated")
	for _, r := range rows {
		lat := func(v float64) float64 {
			if r.TrackedDone == 0 {
				return math.NaN()
			}
			return v
		}
		t.AddRow(r.N, r.B, r.Offered, r.Accepted, r.Messages,
			lat(r.MeanLat), lat(r.P95), lat(r.P99), r.Backlog, r.Saturated)
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "T15",
		Title: "Scale study — 1024-input butterfly (offline: -scale 4096): load curves across the knee into deep saturation",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{t15CurveTable(T15OpenLoop(cfg))}
		},
	})
}
