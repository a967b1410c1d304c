package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"wormhole/internal/rng"
)

func buildDiamond(t *testing.T) (*Graph, [5]EdgeID) {
	t.Helper()
	// 0 → 1 → 3, 0 → 2 → 3, and 3 → 0 back edge.
	g := New(4, 5)
	g.AddNodes(4)
	var e [5]EdgeID
	e[0] = g.AddEdge(0, 1)
	e[1] = g.AddEdge(1, 3)
	e[2] = g.AddEdge(0, 2)
	e[3] = g.AddEdge(2, 3)
	e[4] = g.AddEdge(3, 0)
	return g, e
}

func TestBasicConstruction(t *testing.T) {
	g, e := buildDiamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 5 {
		t.Fatalf("got %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if got := g.Edge(e[0]); got.Tail != 0 || got.Head != 1 {
		t.Errorf("edge 0 = %+v", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(3) != 2 || g.OutDegree(3) != 1 {
		t.Error("degree bookkeeping wrong")
	}
	if g.FindEdge(0, 1) != e[0] {
		t.Error("FindEdge(0,1)")
	}
	if g.FindEdge(1, 0) != None {
		t.Error("FindEdge(1,0) should be None")
	}
	if !g.HasNode(3) || g.HasNode(4) || g.HasNode(-1) {
		t.Error("HasNode")
	}
	if !g.HasEdge(e[4]) || g.HasEdge(99) {
		t.Error("HasEdge")
	}
}

func TestLabels(t *testing.T) {
	g := New(0, 0)
	v := g.AddNode("hello")
	if g.Label(v) != "hello" {
		t.Error("label lost")
	}
}

func TestAddEdgePanicsOnUnknownNode(t *testing.T) {
	g := New(1, 1)
	g.AddNode("")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.AddEdge(0, 5)
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2, 2)
	g.AddNodes(2)
	e1 := g.AddEdge(0, 1)
	e2 := g.AddEdge(0, 1)
	if e1 == e2 {
		t.Error("parallel edges must get distinct IDs")
	}
	if g.FindEdge(0, 1) != e1 {
		t.Error("FindEdge returns lowest ID")
	}
}

func TestBiEdge(t *testing.T) {
	g := New(2, 2)
	g.AddNodes(2)
	uv, vu := g.AddBiEdge(0, 1)
	if g.Edge(uv).Head != 1 || g.Edge(vu).Head != 0 {
		t.Error("AddBiEdge orientation")
	}
}

func TestDOT(t *testing.T) {
	g, _ := buildDiamond(t)
	dot := g.DOT("d")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "n0 -> n1") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}
}

func TestPathValidate(t *testing.T) {
	g, e := buildDiamond(t)
	good := Path{e[0], e[1]}
	if err := good.Validate(g, 0, 3); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := (Path{e[0], e[3]}).Validate(g, 0, 3); err == nil {
		t.Error("disconnected walk accepted")
	}
	if err := good.Validate(g, 0, 2); err == nil {
		t.Error("wrong destination accepted")
	}
	if err := good.Validate(g, 1, 3); err == nil {
		t.Error("wrong source accepted")
	}
	if err := (Path{}).Validate(g, 2, 2); err != nil {
		t.Errorf("empty self path rejected: %v", err)
	}
	if err := (Path{}).Validate(g, 0, 2); err == nil {
		t.Error("empty path with src≠dst accepted")
	}
	if err := (Path{99}).Validate(g, 0, 3); err == nil {
		t.Error("bogus edge ID accepted")
	}
}

func TestEdgeSimple(t *testing.T) {
	g, e := buildDiamond(t)
	if !(Path{e[0], e[1], e[4]}).EdgeSimple() {
		t.Error("simple path misflagged")
	}
	if (Path{e[0], e[1], e[4], e[0]}).EdgeSimple() {
		t.Error("repeated edge not caught")
	}
	_ = g
}

func TestPathNodes(t *testing.T) {
	g, e := buildDiamond(t)
	nodes := Path{e[0], e[1], e[4]}.Nodes(g, 0)
	want := []NodeID{0, 1, 3, 0}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
}

func TestShortestPath(t *testing.T) {
	g, _ := buildDiamond(t)
	p, ok := ShortestPath(g, 0, 3)
	if !ok || len(p) != 2 {
		t.Fatalf("ShortestPath(0,3) = %v, %v", p, ok)
	}
	if err := p.Validate(g, 0, 3); err != nil {
		t.Fatal(err)
	}
	if p2, ok := ShortestPath(g, 2, 2); !ok || len(p2) != 0 {
		t.Error("self path should be empty")
	}
	// Unreachable: isolated node.
	g2 := New(2, 0)
	g2.AddNodes(2)
	if _, ok := ShortestPath(g2, 0, 1); ok {
		t.Error("unreachable pair found a path")
	}
}

func TestBFSDistances(t *testing.T) {
	g, _ := buildDiamond(t)
	d := BFSDistances(g, 0)
	want := []int{0, 1, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("distances = %v, want %v", d, want)
		}
	}
}

func TestDiameter(t *testing.T) {
	g, _ := buildDiamond(t)
	// Longest shortest path: 1 → 0 is 1 →3 →0 = 2; 1→2 = 1→3→0→2 = 3.
	if got := Diameter(g); got != 3 {
		t.Errorf("diameter = %d, want 3", got)
	}
	if Diameter(New(1, 0)) != 0 {
		t.Error("single-node diameter")
	}
}

func TestIsDAG(t *testing.T) {
	g, _ := buildDiamond(t) // has the 3→0 back edge → cyclic
	if IsDAG(g) {
		t.Error("cyclic graph declared a DAG")
	}
	acyc := New(3, 2)
	acyc.AddNodes(3)
	acyc.AddEdge(0, 1)
	acyc.AddEdge(1, 2)
	if !IsDAG(acyc) {
		t.Error("path graph declared cyclic")
	}
	if !IsDAG(New(0, 0)) {
		t.Error("empty graph is a DAG")
	}
}

func TestMaxDegree(t *testing.T) {
	g, _ := buildDiamond(t)
	if got := g.MaxDegree(); got != 2 {
		t.Errorf("max degree = %d, want 2", got)
	}
}

// TestShortestPathMatchesBFS cross-checks ShortestPath length against
// BFSDistances on random graphs.
func TestShortestPathMatchesBFS(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(30)
		g := New(n, 3*n)
		g.AddNodes(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
		}
		src := NodeID(r.Intn(n))
		dist := BFSDistances(g, src)
		for v := 0; v < n; v++ {
			p, ok := ShortestPath(g, src, NodeID(v))
			if (dist[v] >= 0) != ok {
				return false
			}
			if ok {
				if len(p) != dist[v] {
					return false
				}
				if err := p.Validate(g, src, NodeID(v)); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummary(t *testing.T) {
	g, _ := buildDiamond(t)
	if s := g.String(); !strings.Contains(s, "4") || !strings.Contains(s, "5") {
		t.Errorf("summary %q", s)
	}
}
