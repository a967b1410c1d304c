package core

import (
	"fmt"

	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// T10Row is one cell of the continuous-injection experiment.
type T10Row struct {
	N, B      int
	Rate      float64 // messages per input per flit step
	Messages  int
	MeanLat   float64
	P95Lat    float64
	Overrun   int  // makespan − last arrival − (D+L−1): queueing backlog
	Saturated bool // overrun exceeds the horizon (rate unsustainable)
}

// T10Continuous probes the continuous-routing regime the paper cites
// (Scheideler–Vöcking, Section 1.3.1): messages arrive at each butterfly
// input as a Poisson process and are routed greedily. As the injection
// rate λ rises, latency stays flat until the router saturates; the
// sustainable rate grows with B faster than linearly, mirroring the
// D^(1/B) factor in the cited maximum-injection-rate bound. Batch
// theorems do not cover this regime — the experiment is contextual, not
// a theorem reproduction.
//
// The experiment runs on the internal/traffic open-loop engine (Poisson
// process, uniform pattern, no warmup, full drain), which replaced the
// original hand-rolled release-list generator; T12 is the full
// steady-state treatment with measurement windows and saturation search.
func T10Continuous(cfg Config) []T10Row {
	n := 64
	horizon := 2048
	// Offered load per input in flits/step is rate·L; with L = log n the
	// top rate pushes the B = 1 router past its knee.
	rates := []float64{0.02, 0.05, 0.1, 0.15, 0.25}
	bs := []int{1, 2, 4}
	if cfg.Quick {
		n = 32
		horizon = 512
		rates = []float64{0.02, 0.1}
		bs = []int{1, 4}
	}
	l := topology.Log2(n)

	// One job per (B, rate) point; a point whose Poisson draw yields no
	// messages returns an empty row and is skipped when rows are
	// collected.
	rows := mapJobs(cfg, len(bs)*len(rates), func(i int) T10Row {
		b, rate := bs[i/len(rates)], rates[i%len(rates)]
		res, err := traffic.Run(traffic.Config{
			Net:             traffic.NewButterflyNet(n),
			VirtualChannels: b,
			MessageLength:   l,
			Arbitration:     vcsim.ArbAge,
			Process:         traffic.Poisson,
			Rate:            rate,
			Pattern:         traffic.Uniform,
			Warmup:          0, // every message is tracked, as before
			Measure:         horizon,
			Drain:           horizon * 16,
			Seed:            cfg.Seed + uint64(b)*1009 + uint64(rate*1e6),
			Metrics:         cfg.metrics(),
			OnStep:          cfg.onStep(),
		})
		if err != nil {
			panic(fmt.Sprintf("T10: %v", err))
		}
		if res.Injected == 0 {
			return T10Row{}
		}
		if res.Backlog > 0 {
			panic("T10: open-loop run failed to drain")
		}
		overrun := res.Steps - res.LastRelease - (l + l - 1)
		return T10Row{
			N: n, B: b,
			Rate:      rate,
			Messages:  res.Injected,
			MeanLat:   res.MeanLatency,
			P95Lat:    res.P95,
			Overrun:   overrun,
			Saturated: overrun > horizon/4,
		}
	})
	out := make([]T10Row, 0, len(rows))
	for _, r := range rows {
		if r.Messages > 0 {
			out = append(out, r)
		}
	}
	return out
}

func t10Table(rows []T10Row) *stats.Table {
	t := stats.NewTable(
		"T10 — continuous Poisson injection: latency vs rate vs B",
		"n", "B", "rate/input", "messages", "mean latency", "p95 latency",
		"drain overrun", "saturated")
	for _, r := range rows {
		t.AddRow(r.N, r.B, r.Rate, r.Messages, r.MeanLat, r.P95Lat,
			r.Overrun, r.Saturated)
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "T10",
		Title: "Section 1.3.1 context — continuous injection throughput",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{t10Table(T10Continuous(cfg))}
		},
	})
}
