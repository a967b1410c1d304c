package core

import (
	"fmt"

	"wormhole/internal/baseline"
	"wormhole/internal/rng"
	"wormhole/internal/schedule"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/vcsim"
)

// T5Row compares one router on the Section 1.4 comparison workload.
type T5Row struct {
	Method    string
	BufFlits  int // per-edge flit-buffer budget
	FlitSteps int
	Delivered bool
	Note      string
}

// T5RouterComparison reproduces the Section 1.4 discussion: on an L = q =
// log n butterfly workload, compare (a) wormhole routing with B virtual
// channels, scheduled and greedy, (b) store-and-forward routing, and (c)
// virtual cut-through with the same per-edge buffer budget spent on depth
// instead of multiplexing. The paper's points: SAF is fast but needs
// whole-message buffers; VCT's benefit is linear in B; wormhole+VC closes
// most of the SAF gap with log-factor-size buffers.
func T5RouterComparison(cfg Config) []T5Row {
	n := 256
	if cfg.Quick {
		n = 64
	}
	k := topology.Log2(n)
	q := k
	l := k
	p := ButterflyQRelation(n, q, l, cfg.Seed)

	// Each router family is an independent job over the shared workload;
	// the job list preserves the table's row order.
	var jobs []func() []T5Row

	// Wormhole, greedy and scheduled, for B in {1, 2, ⌈log log n⌉·2}.
	bs := []int{1, 2, 2 * log2ceil(k)}
	for _, b := range bs {
		b := b
		jobs = append(jobs, func() []T5Row {
			g := p.RouteGreedy(GreedyOptions{B: b, Policy: vcsim.ArbAge, Metrics: cfg.metrics()})
			_, sres, err := p.RouteScheduled(ScheduleOptions{B: b, Seed: cfg.Seed, Metrics: cfg.metrics()})
			if err != nil {
				panic(fmt.Sprintf("T5: scheduled B=%d: %v", b, err))
			}
			return []T5Row{{
				Method:    fmt.Sprintf("wormhole greedy B=%d", b),
				BufFlits:  b,
				FlitSteps: g.Steps,
				Delivered: g.AllDelivered(),
			}, {
				Method:    fmt.Sprintf("wormhole LLL-scheduled B=%d", b),
				BufFlits:  b,
				FlitSteps: sres.Steps,
				Delivered: sres.AllDelivered(),
			}}
		})
	}

	// Store-and-forward: greedy FIFO; buffer budget is whole messages.
	jobs = append(jobs, func() []T5Row {
		saf := baseline.RunStoreAndForward(p.Set)
		return []T5Row{{
			Method:    "store-and-forward greedy",
			BufFlits:  baseline.SAFFlitBufferBudget(saf, l),
			FlitSteps: saf.FlitSteps,
			Delivered: saf.Delivered == p.Set.Len(),
			Note:      fmt.Sprintf("bound L(C+D)=%s", stats.FormatFloat(schedule.StoreAndForwardBound(l, p.C, p.D))),
		}}
	})

	// Store-and-forward with LMR delay smoothing: the certified-collision-
	// free O(C+D) schedule the paper's comparison assumes.
	jobs = append(jobs, func() []T5Row {
		lmr, err := baseline.BuildLMRSchedule(p.Set, rng.New(cfg.Seed))
		if err != nil {
			panic(fmt.Sprintf("T5: LMR schedule: %v", err))
		}
		return []T5Row{{
			Method:    "store-and-forward LMR-scheduled",
			BufFlits:  l, // unimpeded motion: one message per node at a time
			FlitSteps: baseline.LMRFlitSteps(lmr, l),
			Delivered: true,
			Note:      fmt.Sprintf("window=%d attempts=%d", lmr.Window, lmr.Attempts),
		}}
	})

	// Virtual cut-through with the wormhole router's buffer budget.
	for _, b := range bs[1:] {
		b := b
		jobs = append(jobs, func() []T5Row {
			v := baseline.RunVirtualCutThrough(p.Set, baseline.VCTConfig{BufferFlits: b})
			return []T5Row{{
				Method:    fmt.Sprintf("virtual cut-through buf=%d", b),
				BufFlits:  b,
				FlitSteps: v.Steps,
				Delivered: v.Delivered == p.Set.Len() && !v.Deadlocked,
			}}
		})
	}

	return flatJobs(cfg, len(jobs), func(i int) []T5Row { return jobs[i]() })
}

func log2ceil(x int) int {
	k := 0
	for v := x - 1; v > 0; v >>= 1 {
		k++
	}
	if k == 0 {
		return 1
	}
	return k
}

func t5Table(rows []T5Row) *stats.Table {
	t := stats.NewTable(
		"T5 — Section 1.4: router comparison at L = q = log n",
		"method", "buffer flits/edge", "flit steps", "all delivered", "note")
	for _, r := range rows {
		t.AddRow(r.Method, r.BufFlits, r.FlitSteps, r.Delivered, r.Note)
	}
	return t
}

// T5 is not a batch declaration (batch.go): each router family's job
// makes its own rows, named and annotated with strings, not named numbers.
func init() {
	register(Experiment{
		ID:    "T5",
		Title: "Section 1.4 — wormhole vs store-and-forward vs cut-through",
		Run: func(cfg Config) []*stats.Table {
			return []*stats.Table{t5Table(T5RouterComparison(cfg))}
		},
	})
}
