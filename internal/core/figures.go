package core

import (
	"fmt"

	"wormhole/internal/analysis"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
)

// f2 traces the Figure 2 routing pattern: a message's two passes
// through the butterfly via a random intermediate column, and summarizes
// congestion/dilation of a two-pass workload. Each table draws from its
// own source, split from the seed in table order.
func f2(cfg Config) []*stats.Table {
	n := 8
	tp := topology.NewTwoPassButterfly(n)
	srcs := jobSources(cfg.Seed, 2)

	r := srcs[0]
	trace := stats.NewTable(
		"F2 — Figure 2: a message's two passes (column at each level)",
		"message", "src", "mid", "dst", "column trace (level 0..2log n)")
	for j := 0; j < 4; j++ {
		src, dst := r.Intn(n), r.Intn(n)
		path, mid := tp.RandomRoute(src, dst, r)
		cols := fmt.Sprint(columnsAlong(tp, path, src))
		trace.AddRow(fmt.Sprintf("p%d", j), src, mid, dst, cols)
	}

	// Aggregate: a full two-pass permutation workload's C and D.
	r = srcs[1]
	set := message.NewSet(tp.G)
	l := topology.Log2(n)
	for src, dst := range r.Perm(n) {
		p, _ := tp.RandomRoute(src, dst, r)
		set.Add(tp.Input(src), tp.Output(dst), l, p)
	}
	agg := stats.NewTable(
		"F2 — two-pass workload parameters",
		"n", "messages", "C", "D", "edge-simple", "dependency acyclic")
	agg.AddRow(n, set.Len(), analysis.Congestion(set), analysis.Dilation(set),
		set.EdgeSimple(), analysis.ChannelDependencyAcyclic(set))
	return []*stats.Table{trace, agg}
}

// columnsAlong lists the column of each node visited by a two-pass path.
func columnsAlong(tp *topology.TwoPassButterfly, p graph.Path, srcCol int) []int {
	cols := []int{srcCol}
	for _, e := range p {
		cols = append(cols, tp.Column(tp.G.Edge(e).Head))
	}
	return cols
}

// F2 is not a batch declaration (batch.go): it is two tables of an
// 8-input network, a column trace and an aggregate, which run no jobs.
func init() {
	register(Experiment{ID: "F2", Title: "Figure 2 — two-pass routing", Run: f2})
}
