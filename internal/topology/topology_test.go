package topology

import (
	"testing"
	"testing/quick"

	"wormhole/internal/graph"
	"wormhole/internal/rng"
)

func TestButterflyStructure(t *testing.T) {
	for _, n := range []int{2, 4, 8, 32} {
		bf := NewButterfly(n)
		k := bf.Levels
		if wantNodes := n * (k + 1); bf.G.NumNodes() != wantNodes {
			t.Errorf("n=%d: %d nodes, want n(log n+1)=%d", n, bf.G.NumNodes(), wantNodes)
		}
		if wantEdges := 2 * n * k; bf.G.NumEdges() != wantEdges {
			t.Errorf("n=%d: %d edges, want 2n·log n=%d", n, bf.G.NumEdges(), wantEdges)
		}
		// Every non-output node has out-degree 2; every non-input
		// in-degree 2.
		for w := 0; w < n; w++ {
			for lvl := 0; lvl <= k; lvl++ {
				id := bf.Node(w, lvl)
				wantOut := 2
				if lvl == k {
					wantOut = 0
				}
				if bf.G.OutDegree(id) != wantOut {
					t.Fatalf("n=%d (%d,%d): out-degree %d", n, w, lvl, bf.G.OutDegree(id))
				}
				wantIn := 2
				if lvl == 0 {
					wantIn = 0
				}
				if bf.G.InDegree(id) != wantIn {
					t.Fatalf("n=%d (%d,%d): in-degree %d", n, w, lvl, bf.G.InDegree(id))
				}
				if bf.Column(id) != w || bf.Level(id) != lvl {
					t.Fatalf("coordinate inverse broken at (%d,%d)", w, lvl)
				}
			}
		}
		if !graph.IsDAG(bf.G) {
			t.Errorf("n=%d: butterfly must be leveled/acyclic", n)
		}
	}
}

func TestButterflyEdgesMatchDefinition(t *testing.T) {
	// Section 1.2: (w, i) links to (w', i+1) iff w' = w or w' differs from
	// w exactly in bit position i+1 (1-indexed from the most significant).
	bf := NewButterfly(8)
	k := bf.Levels
	for _, e := range bf.G.Edges() {
		wi, li := bf.Column(e.Tail), bf.Level(e.Tail)
		wj, lj := bf.Column(e.Head), bf.Level(e.Head)
		if lj != li+1 {
			t.Fatalf("edge spans levels %d→%d", li, lj)
		}
		if wi != wj {
			diff := wi ^ wj
			wantBit := 1 << (k - (li + 1))
			if diff != wantBit {
				t.Fatalf("cross edge flips %b, want bit %b (level %d)", diff, wantBit, li)
			}
		}
	}
}

func TestButterflyRoute(t *testing.T) {
	bf := NewButterfly(16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			p := bf.Route(src, dst)
			if len(p) != bf.Levels {
				t.Fatalf("route %d→%d has %d edges", src, dst, len(p))
			}
			if err := p.Validate(bf.G, bf.Input(src), bf.Output(dst)); err != nil {
				t.Fatalf("route %d→%d invalid: %v", src, dst, err)
			}
			if !p.EdgeSimple() {
				t.Fatalf("route %d→%d not edge-simple", src, dst)
			}
		}
	}
}

func TestButterflyRouteUnique(t *testing.T) {
	// The butterfly has exactly one input→output path; Route must find it
	// and its length must equal the BFS distance.
	bf := NewButterfly(8)
	for src := 0; src < 8; src++ {
		dist := graph.BFSDistances(bf.G, bf.Input(src))
		for dst := 0; dst < 8; dst++ {
			if dist[bf.Output(dst)] != bf.Levels {
				t.Fatalf("distance %d→%d = %d, want log n", src, dst, dist[bf.Output(dst)])
			}
		}
	}
}

func TestTwoPassButterfly(t *testing.T) {
	n := 8
	tp := NewTwoPassButterfly(n)
	k := tp.Levels
	if wantNodes := n * (2*k + 1); tp.G.NumNodes() != wantNodes {
		t.Errorf("%d nodes, want %d", tp.G.NumNodes(), wantNodes)
	}
	if wantEdges := 4 * n * k; tp.G.NumEdges() != wantEdges {
		t.Errorf("%d edges, want %d", tp.G.NumEdges(), wantEdges)
	}
	if !graph.IsDAG(tp.G) {
		t.Error("two-pass butterfly must be acyclic")
	}
	r := rng.New(5)
	for trial := 0; trial < 100; trial++ {
		src, mid, dst := r.Intn(n), r.Intn(n), r.Intn(n)
		p := tp.Route(src, mid, dst)
		if len(p) != 2*k {
			t.Fatalf("two-pass route has %d edges, want %d", len(p), 2*k)
		}
		if err := p.Validate(tp.G, tp.Input(src), tp.Output(dst)); err != nil {
			t.Fatalf("invalid: %v", err)
		}
		// The midpoint at level k must be the chosen intermediate column.
		nodes := p.Nodes(tp.G, tp.Input(src))
		if tp.Column(nodes[k]) != mid {
			t.Fatalf("midpoint column %d, want %d", tp.Column(nodes[k]), mid)
		}
	}
}

func TestTwoPassRandomRoute(t *testing.T) {
	tp := NewTwoPassButterfly(16)
	r := rng.New(9)
	mids := make(map[int]bool)
	for i := 0; i < 64; i++ {
		p, mid := tp.RandomRoute(3, 11, r)
		if err := p.Validate(tp.G, tp.Input(3), tp.Output(11)); err != nil {
			t.Fatal(err)
		}
		mids[mid] = true
	}
	if len(mids) < 8 {
		t.Errorf("random intermediates poorly spread: %d distinct", len(mids))
	}
}

func TestButterflyPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewButterfly(%d) did not panic", n)
				}
			}()
			NewButterfly(n)
		}()
	}
}

func TestMeshStructure(t *testing.T) {
	m := NewMesh(3, 4)
	if m.G.NumNodes() != 12 {
		t.Fatalf("nodes = %d", m.G.NumNodes())
	}
	// Edges: horizontal 3·3·2? dims {3,4}: dimension 0 has (3-1)·4 = 8
	// pairs, dimension 1 has 3·(4-1) = 9 pairs; ×2 directions.
	if want := 2 * (8 + 9); m.G.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", m.G.NumEdges(), want)
	}
	for x := 0; x < 3; x++ {
		for y := 0; y < 4; y++ {
			id := m.Node(x, y)
			c := m.Coord(id)
			if c[0] != x || c[1] != y {
				t.Fatalf("coord inverse broken at (%d,%d): %v", x, y, c)
			}
		}
	}
}

func TestMeshDimensionOrderRoute(t *testing.T) {
	m := NewMesh(4, 4)
	r := rng.New(2)
	for trial := 0; trial < 100; trial++ {
		src := graph.NodeID(r.Intn(16))
		dst := graph.NodeID(r.Intn(16))
		p := m.DimensionOrderRoute(src, dst)
		if err := p.Validate(m.G, src, dst); err != nil {
			t.Fatal(err)
		}
		cs, cd := m.Coord(src), m.Coord(dst)
		manhattan := abs(cs[0]-cd[0]) + abs(cs[1]-cd[1])
		if len(p) != manhattan {
			t.Fatalf("route length %d, manhattan %d", len(p), manhattan)
		}
	}
}

func TestTorusWrapRoute(t *testing.T) {
	m := NewTorus(8)
	// 0 → 7 on a ring of 8 should go the short way: 1 hop.
	p := m.DimensionOrderRoute(m.Node(0), m.Node(7))
	if len(p) != 1 {
		t.Fatalf("torus 0→7 took %d hops, want 1 (wrap)", len(p))
	}
	p = m.DimensionOrderRoute(m.Node(1), m.Node(5))
	if len(p) != 4 {
		t.Fatalf("torus 1→5 took %d hops, want 4", len(p))
	}
	if !StronglyConnected(m.G) {
		t.Error("torus must be strongly connected")
	}
}

func TestHypercube(t *testing.T) {
	h := NewHypercube(16)
	if h.G.NumNodes() != 16 || h.G.NumEdges() != 16*4 {
		t.Fatalf("hypercube size: %d nodes %d edges", h.G.NumNodes(), h.G.NumEdges())
	}
	if d := graph.Diameter(h.G); d != h.Dim {
		t.Fatalf("hypercube diameter %d, want %d", d, h.Dim)
	}
}

func TestLinearArray(t *testing.T) {
	g := NewLinearArray(5)
	if g.NumNodes() != 5 || g.NumEdges() != 8 {
		t.Fatalf("linear array: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !StronglyConnected(g) {
		t.Error("linear array with antiparallel edges must be strongly connected")
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := NewRandomRegular(40, 3, r)
		// Self-loops are skipped, so degrees are ≤ d with deficit equal to
		// the number of fixed points.
		deficit := 3*40 - g.NumEdges()
		if deficit < 0 || deficit > 20 {
			return false
		}
		for v := 0; v < 40; v++ {
			if g.OutDegree(graph.NodeID(v)) > 3 || g.InDegree(graph.NodeID(v)) > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRegularUsuallyStronglyConnected(t *testing.T) {
	r := rng.New(8)
	ok := 0
	for i := 0; i < 20; i++ {
		if StronglyConnected(NewRandomRegular(64, 3, r)) {
			ok++
		}
	}
	if ok < 15 {
		t.Errorf("only %d/20 random regular graphs strongly connected", ok)
	}
}

func TestStronglyConnectedNegative(t *testing.T) {
	g := graph.New(2, 1)
	g.AddNodes(2)
	g.AddEdge(0, 1)
	if StronglyConnected(g) {
		t.Error("one-way pair is not strongly connected")
	}
	if !StronglyConnected(graph.New(0, 0)) {
		t.Error("empty graph is vacuously strongly connected")
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := Log2(n); got != want {
			t.Errorf("Log2(%d) = %d, want %d", n, got, want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
