package message

import (
	"testing"

	"wormhole/internal/graph"
	"wormhole/internal/topology"
)

func lineGraph(n int) *graph.Graph { return topology.NewLinearArray(n) }

func TestSetAddAndAccessors(t *testing.T) {
	g := lineGraph(4)
	s := NewSet(g)
	route := ShortestPathRouter(g)
	id := s.Add(0, 3, 5, route(0, 3))
	if id != 0 || s.Len() != 1 {
		t.Fatal("Add bookkeeping")
	}
	m := s.Get(id)
	if m.Src != 0 || m.Dst != 3 || m.Length != 5 || len(m.Path) != 3 {
		t.Fatalf("message = %+v", m)
	}
	if s.MaxLength() != 5 {
		t.Error("MaxLength")
	}
	s.Add(3, 0, 9, route(3, 0))
	if s.MaxLength() != 9 {
		t.Error("MaxLength after second add")
	}
}

func TestAddPanicsOnBadPath(t *testing.T) {
	g := lineGraph(4)
	s := NewSet(g)
	route := ShortestPathRouter(g)
	assertPanics(t, "wrong dst", func() { s.Add(0, 2, 3, route(0, 3)) })
	assertPanics(t, "zero length", func() { s.Add(0, 3, 0, route(0, 3)) })
}

func TestEdgeSimple(t *testing.T) {
	g := lineGraph(3)
	s := NewSet(g)
	route := ShortestPathRouter(g)
	s.Add(0, 2, 2, route(0, 2))
	if !s.EdgeSimple() {
		t.Error("simple set misflagged")
	}
	// Walk 0→1→0→1→2 repeats edge 0→1.
	e01 := g.FindEdge(0, 1)
	e10 := g.FindEdge(1, 0)
	e12 := g.FindEdge(1, 2)
	s.Add(0, 2, 2, graph.Path{e01, e10, e01, e12})
	if s.EdgeSimple() {
		t.Error("edge-repeating set not caught")
	}
}

func TestSubset(t *testing.T) {
	g := lineGraph(5)
	s := NewSet(g)
	route := ShortestPathRouter(g)
	for i := 0; i < 4; i++ {
		s.Add(0, graph.NodeID(i+1), 2, route(0, graph.NodeID(i+1)))
	}
	sub, orig := s.Subset([]ID{2, 0})
	if sub.Len() != 2 || orig[0] != 2 || orig[1] != 0 {
		t.Fatalf("subset = %d msgs, orig %v", sub.Len(), orig)
	}
	if sub.Get(0).Dst != 3 || sub.Get(1).Dst != 1 {
		t.Error("subset content wrong")
	}
	if sub.Get(0).ID != 0 || sub.Get(1).ID != 1 {
		t.Error("subset IDs not densely renumbered")
	}
}

func TestTransposeWorkload(t *testing.T) {
	pairs := Transpose(3, func(x, y int) graph.NodeID { return graph.NodeID(3*x + y) })
	// 9 cells minus 3 diagonal = 6 messages.
	if len(pairs) != 6 {
		t.Fatalf("%d transpose pairs", len(pairs))
	}
	for _, p := range pairs {
		x, y := int(p.Src)/3, int(p.Src)%3
		if int(p.Dst) != 3*y+x {
			t.Fatalf("pair %v is not a transpose", p)
		}
	}
}

func TestBuild(t *testing.T) {
	g := lineGraph(6)
	pairs := []Endpoints{{0, 5}, {5, 0}, {2, 4}}
	s := Build(g, pairs, 7, ShortestPathRouter(g))
	if s.Len() != 3 || s.MaxLength() != 7 {
		t.Fatal("Build")
	}
	for i, p := range pairs {
		if s.Get(ID(i)).Src != p.Src || s.Get(ID(i)).Dst != p.Dst {
			t.Fatal("Build endpoints")
		}
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
