package routeopt

import (
	"testing"
	"testing/quick"

	"wormhole/internal/analysis"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
)

// hotspotPairs sends k messages between the same endpoints of a graph
// that offers several disjoint routes — plain BFS stacks them all on one
// path, a congestion-aware selector spreads them.
func parallelGraph(width, length int) (*graph.Graph, graph.NodeID, graph.NodeID) {
	g := graph.New(2+width*length, width*(length+1))
	src := g.AddNode("s")
	dst := g.AddNode("t")
	for w := 0; w < width; w++ {
		prev := src
		for i := 0; i < length; i++ {
			n := g.AddNode("")
			g.AddEdge(prev, n)
			prev = n
		}
		g.AddEdge(prev, dst)
	}
	return g, src, dst
}

func TestGreedyMinMaxSpreadsParallelPaths(t *testing.T) {
	g, src, dst := parallelGraph(4, 3)
	pairs := make([]message.Endpoints, 8)
	for i := range pairs {
		pairs[i] = message.Endpoints{Src: src, Dst: dst}
	}
	// Plain BFS: everything on one lane → C = 8.
	plain := message.Build(g, pairs, 4, message.ShortestPathRouter(g))
	if c := analysis.Congestion(plain); c != 8 {
		t.Fatalf("plain congestion = %d, want 8", c)
	}
	// Congestion-aware: spread over 4 lanes → C = 2.
	smart := GreedyMinMax(g, pairs, 4)
	if c := analysis.Congestion(smart); c != 2 {
		t.Fatalf("greedy min-max congestion = %d, want 2", c)
	}
	for i := range smart.Msgs {
		if err := smart.Msgs[i].Path.Validate(g, src, dst); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGreedyMinMaxRespectsStretch(t *testing.T) {
	// Two messages 0→dst with one shortest path and one longer alternate
	// of `detour` hops. The alternate may be taken only while it is within
	// stretch × the shortest length, rounded up; past that the selector
	// must fall back to the shortest path however loaded it is.
	build := func(direct, detour int) *message.Set {
		g := graph.New(direct+detour, direct+detour)
		g.AddNodes(direct + detour)
		dst := graph.NodeID(direct)
		chain := func(hops, firstInner int) {
			at := graph.NodeID(0)
			for h := 1; h < hops; h++ {
				next := graph.NodeID(firstInner + h - 1)
				g.AddEdge(at, next)
				at = next
			}
			g.AddEdge(at, dst)
		}
		chain(direct, 1)
		chain(detour, direct+1)
		return GreedyMinMax(g, []message.Endpoints{{Src: 0, Dst: dst}, {Src: 0, Dst: dst}}, 2)
	}
	// 1 hop direct, 3 hops around: over the ⌈1.5·1⌉ = 2-hop limit.
	set := build(1, 3)
	for i := range set.Msgs {
		if len(set.Msgs[i].Path) != 1 {
			t.Fatalf("a 3-hop detour around a 1-hop path must be refused, got %d hops", len(set.Msgs[i].Path))
		}
	}
	// 2 hops direct, 3 around: inside the 3-hop limit, so it is taken.
	if c := analysis.Congestion(build(2, 3)); c != 1 {
		t.Fatalf("a 3-hop detour around a 2-hop path: congestion %d, want 1 (detour taken)", c)
	}
}

func TestRebalanceReducesCongestion(t *testing.T) {
	g, src, dst := parallelGraph(4, 3)
	pairs := make([]message.Endpoints, 8)
	for i := range pairs {
		pairs[i] = message.Endpoints{Src: src, Dst: dst}
	}
	set := message.Build(g, pairs, 4, message.ShortestPathRouter(g))
	before := analysis.Congestion(set)
	reroutes, after := Rebalance(set)
	if after >= before {
		t.Fatalf("rebalance: %d → %d (reroutes %d)", before, after, reroutes)
	}
	if after != 2 {
		t.Errorf("rebalance should reach the optimum 2, got %d", after)
	}
	// Paths must stay valid.
	for i := range set.Msgs {
		m := set.Msgs[i]
		if err := m.Path.Validate(g, m.Src, m.Dst); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGreedyMinMaxOnButterflyMatchesUniquePaths(t *testing.T) {
	// The butterfly has a unique input→output path, so the selector has
	// no freedom: it must return exactly the bit-fixing paths.
	bf := topology.NewButterfly(16)
	r := rng.New(5)
	var pairs []message.Endpoints
	for src, dst := range r.Perm(16) {
		pairs = append(pairs, message.Endpoints{Src: bf.Input(src), Dst: bf.Output(dst)})
	}
	set := GreedyMinMax(bf.G, pairs, 4)
	for i, ep := range pairs {
		want := bf.Route(bf.Column(ep.Src), bf.Column(ep.Dst))
		got := set.Msgs[i].Path
		if len(got) != len(want) {
			t.Fatalf("message %d: path length %d, want %d", i, len(got), len(want))
		}
	}
}

func TestGreedyMinMaxNeverWorseThanBFS(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := topology.NewMesh(5, 5)
		var pairs []message.Endpoints
		for i := 0; i < 20; i++ {
			src := graph.NodeID(r.Intn(25))
			dst := graph.NodeID(r.Intn(25))
			if src == dst {
				continue
			}
			pairs = append(pairs, message.Endpoints{Src: src, Dst: dst})
		}
		if len(pairs) == 0 {
			return true
		}
		plain := message.Build(m.G, pairs, 3, message.ShortestPathRouter(m.G))
		smart := GreedyMinMax(m.G, pairs, 3)
		// The selector must not increase congestion beyond BFS routing
		// (it can always fall back to shortest paths), modulo the +1
		// slack of greedy sequential placement.
		return analysis.Congestion(smart) <= analysis.Congestion(plain)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
