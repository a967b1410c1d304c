package core

import (
	"fmt"
	"math"

	"wormhole/internal/fault"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// T16 is the graceful-degradation study: the paper argues virtual
// channels let traffic route around *blocked* resources; this experiment
// asks how far the same lane multiplicity carries when resources *fail*.
// A 64-input butterfly runs the open-loop Poisson/uniform workload at a
// fixed offered load below the B=1 knee while a seed-derived outage
// process (internal/fault) kills one lane per afflicted edge for a
// random window. The same schedule is applied at every B, so one killed
// lane is the whole link at B=1 and an eighth of it at B=8 — the
// VC-count axis is the degradation knob under test.
//
// Two properties make the sweep honest rather than anecdotal:
//
//   - fault.Generate's outage sets are nested across rates (the
//     candidate draw is rate-independent; the rate only thins it), so
//     accepted throughput is monotonically non-increasing in the fault
//     rate by construction, not by sampling luck;
//   - every (B, rate) point sees identical arrival sample paths (per-B
//     seeds, shared across rates), so curves differ only by the outage
//     process.
//
// Messages whose first edge is dead before injection go through the
// retry policy (capped exponential backoff in simulated time); worms
// blocked mid-flight park on the fault wait-queues until revival.

// T16Row is one degradation curve point.
type T16Row struct {
	N         int
	B         int
	FaultRate float64
	Outages   int // edges afflicted by the schedule at this rate
	Offered   float64
	Accepted  float64
	Messages  int
	Aborted   int
	MeanLat   float64
	P50, P95  float64
	P99       float64
	Backlog   int
	Saturated bool
}

// t16Params bundles the sweep geometry.
type t16Params struct {
	n          int
	bs         []int
	faultRates []float64
	rate       float64
	warmup     int
	measure    int
	drain      int
	meanOutage int
	maxBacklog int
}

func t16Scale(cfg Config) t16Params {
	p := t16Params{
		n:          64,
		bs:         []int{1, 2, 4, 8},
		faultRates: []float64{0, 0.1, 0.25, 0.5, 1.0},
		rate:       0.04,
		warmup:     128,
		measure:    768,
		drain:      1 << 14,
		meanOutage: 192,
		maxBacklog: 1 << 16,
	}
	if cfg.Quick {
		p.bs = []int{1, 8}
		p.faultRates = []float64{0, 0.5}
		p.warmup = 32
		p.measure = 192
		p.drain = 1 << 12
		p.meanOutage = 64
	}
	return p
}

// t16Schedule derives the outage process for one fault rate. Everything
// but the rate is fixed — seed, edge count, horizon, mean outage — so
// the schedules are nested across rates and shared across B.
func (p t16Params) t16Schedule(cfg Config, rate float64) fault.Schedule {
	return fault.Generate(fault.GenConfig{
		Seed:       cfg.Seed + 16001,
		NumEdges:   traffic.NewButterflyNet(p.n).G.NumEdges(),
		Horizon:    p.warmup + p.measure,
		Rate:       rate,
		MeanOutage: p.meanOutage,
		Lanes:      1,
	})
}

func (p t16Params) traffic(b int, sched fault.Schedule, seed uint64) traffic.Config {
	return traffic.Config{
		Net:             traffic.NewButterflyNet(p.n),
		VirtualChannels: b,
		MessageLength:   topology.Log2(p.n),
		Arbitration:     vcsim.ArbAge,
		Process:         traffic.Poisson,
		Rate:            p.rate,
		Pattern:         traffic.Uniform,
		Warmup:          p.warmup,
		Measure:         p.measure,
		Drain:           p.drain,
		MaxBacklog:      p.maxBacklog,
		Seed:            seed,
		Faults:          sched,
		Retry:           vcsim.RetryPolicy{MaxAttempts: 8, Backoff: 16, BackoffCap: 1024},
	}
}

// t16Seed matches the open-loop convention: per-B seeds, shared across
// fault rates, so each curve sweeps the outage axis against one fixed
// arrival sample path.
func t16Seed(cfg Config, b int) uint64 {
	return cfg.Seed + uint64(b)*16411
}

// t16Outages counts the edges the schedule afflicts (each edge draws at
// most one outage, opened by its first kill event).
func t16Outages(s fault.Schedule) int {
	n := 0
	for _, ev := range s {
		if ev.Kind == fault.KillLane || ev.Kind == fault.KillEdge {
			n++
		}
	}
	return n
}

// T16Degradation sweeps the (B, fault rate) grid, one job per point.
func T16Degradation(cfg Config) []T16Row {
	p := t16Scale(cfg)
	return mapJobs(cfg, len(p.bs)*len(p.faultRates), func(i int) T16Row {
		b, frate := p.bs[i/len(p.faultRates)], p.faultRates[i%len(p.faultRates)]
		sched := p.t16Schedule(cfg, frate)
		tc := p.traffic(b, sched, t16Seed(cfg, b))
		tc.Metrics = cfg.metrics()
		res, err := traffic.Run(tc)
		if err != nil {
			panic(fmt.Sprintf("T16: B=%d fault rate=%g: %v", b, frate, err))
		}
		return T16Row{
			N: p.n, B: b,
			FaultRate: frate,
			Outages:   t16Outages(sched),
			Offered:   p.rate,
			Accepted:  res.Accepted,
			Messages:  res.Injected,
			Aborted:   res.Aborted,
			MeanLat:   res.MeanLatency,
			P50:       res.P50,
			P95:       res.P95,
			P99:       res.P99,
			Backlog:   res.Backlog,
			Saturated: res.Saturated,
		}
	})
}

func t16DegradationTable(rows []T16Row) *stats.Table {
	t := stats.NewTable(
		"T16 — graceful degradation: accepted throughput and tail latency vs lane-fault rate (64-input butterfly, Poisson uniform, fixed offered load)",
		"n", "B", "fault rate", "outages", "offered", "accepted",
		"messages", "aborted", "mean latency", "p95", "p99", "backlog", "saturated")
	for _, r := range rows {
		lat := func(v float64) float64 {
			if r.Messages == 0 {
				return math.NaN()
			}
			return v
		}
		t.AddRow(r.N, r.B, r.FaultRate, r.Outages, r.Offered, r.Accepted,
			r.Messages, r.Aborted, lat(r.MeanLat), lat(r.P95), lat(r.P99),
			r.Backlog, r.Saturated)
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "T16",
		Title: "Graceful degradation — accepted throughput and p99 vs lane-fault rate across B∈{1,2,4,8} on the 64-input butterfly",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{t16DegradationTable(T16Degradation(cfg))}
		},
	})
}
