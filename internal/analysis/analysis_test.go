package analysis

import (
	"testing"
	"testing/quick"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
)

// fixture: 3 messages on a line, two sharing the middle edge.
func fixture(t *testing.T) *message.Set {
	t.Helper()
	g := topology.NewLinearArray(5)
	s := message.NewSet(g)
	route := message.ShortestPathRouter(g)
	s.Add(0, 4, 3, route(0, 4)) // edges 0-1,1-2,2-3,3-4
	s.Add(1, 3, 3, route(1, 3)) // edges 1-2,2-3
	s.Add(4, 0, 3, route(4, 0)) // reverse direction, disjoint edges
	return s
}

func TestCongestionDilation(t *testing.T) {
	s := fixture(t)
	if c := Congestion(s); c != 2 {
		t.Errorf("congestion = %d, want 2", c)
	}
	if d := Dilation(s); d != 4 {
		t.Errorf("dilation = %d, want 4", d)
	}
	if c := Congestion(message.NewSet(s.G)); c != 0 {
		t.Errorf("empty congestion = %d", c)
	}
}

func TestEdgeLoads(t *testing.T) {
	s := fixture(t)
	loads := EdgeLoads(s)
	total := 0
	for _, l := range loads {
		total += l
	}
	if total != 4+2+4 {
		t.Errorf("total edge incidences = %d", total)
	}
}

func TestMultiplexSize(t *testing.T) {
	s := fixture(t)
	// All one color: multiplex = congestion = 2.
	if ms := MultiplexSize(s, []int{0, 0, 0}); ms != 2 {
		t.Errorf("single color multiplex = %d", ms)
	}
	// Separate the two conflicting messages: multiplex 1.
	if ms := MultiplexSize(s, []int{0, 1, 0}); ms != 1 {
		t.Errorf("split multiplex = %d", ms)
	}
}

func TestConflictGraph(t *testing.T) {
	s := fixture(t)
	adj := ConflictGraph(s)
	if len(adj[0]) != 1 || adj[0][0] != 1 {
		t.Errorf("message 0 conflicts: %v", adj[0])
	}
	if len(adj[2]) != 0 {
		t.Errorf("message 2 should conflict with nothing: %v", adj[2])
	}
}

func TestGreedyColorValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		bf := topology.NewButterfly(8)
		s := message.NewSet(bf.G)
		for rep := 0; rep < 3; rep++ {
			for src, dst := range r.Perm(8) {
				s.Add(bf.Input(src), bf.Output(dst), 2, bf.Route(src, dst))
			}
		}
		adj := ConflictGraph(s)
		colors, k := GreedyColor(adj)
		for v := range adj {
			for _, u := range adj[v] {
				if colors[v] == colors[u] {
					return false
				}
			}
		}
		// Greedy uses at most Δ+1 colors.
		maxDeg := 0
		for _, a := range adj {
			if len(a) > maxDeg {
				maxDeg = len(a)
			}
		}
		if k > maxDeg+1 {
			return false
		}
		// Coloring to classes: multiplex size must be 1 (no two
		// conflicting messages share a class).
		return MultiplexSize(s, colors) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelDependencyAcyclic(t *testing.T) {
	// Butterfly one-pass paths: leveled, must be acyclic.
	bf := topology.NewButterfly(8)
	s := message.NewSet(bf.G)
	r := rng.New(1)
	for src, dst := range r.Perm(8) {
		s.Add(bf.Input(src), bf.Output(dst), 2, bf.Route(src, dst))
	}
	if !ChannelDependencyAcyclic(s) {
		t.Error("butterfly dependency graph must be acyclic")
	}

	// Two worms in a buffer cycle: cyclic.
	g := graph.New(4, 6)
	g.AddNodes(4)
	p := g.AddEdge(0, 1)
	q := g.AddEdge(2, 3)
	e12 := g.AddEdge(1, 2)
	e30 := g.AddEdge(3, 0)
	s2 := message.NewSet(g)
	s2.Add(0, 3, 2, graph.Path{p, e12, q})
	s2.Add(2, 1, 2, graph.Path{q, e30, p})
	if ChannelDependencyAcyclic(s2) {
		t.Error("cyclic dependency not detected")
	}
}

func TestCollidingSubset(t *testing.T) {
	s := fixture(t)
	if got := CollidingSubset(s, 1); len(got) != 2 {
		t.Errorf("B=1 colliding subset = %v, want a pair", got)
	}
	if got := CollidingSubset(s, 2); got != nil {
		t.Errorf("B=2 should not collide, got %v", got)
	}
}

func TestCollidingSubsetShareEdge(t *testing.T) {
	// The returned messages must actually share one edge.
	r := rng.New(7)
	bf := topology.NewButterfly(16)
	s := message.NewSet(bf.G)
	for rep := 0; rep < 4; rep++ {
		for src, dst := range r.Perm(16) {
			s.Add(bf.Input(src), bf.Output(dst), 2, bf.Route(src, dst))
		}
	}
	for b := 1; b <= 3; b++ {
		ids := CollidingSubset(s, b)
		if ids == nil {
			continue
		}
		if len(ids) != b+1 {
			t.Fatalf("B=%d subset size %d", b, len(ids))
		}
		// Count shared edges.
		counts := map[graph.EdgeID]int{}
		for _, id := range ids {
			for _, e := range s.Get(id).Path {
				counts[e]++
			}
		}
		shared := false
		for _, c := range counts {
			if c == b+1 {
				shared = true
			}
		}
		if !shared {
			t.Fatalf("B=%d: returned messages share no edge", b)
		}
	}
}
