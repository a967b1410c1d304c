package graph_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"
	"testing"

	"wormhole/internal/analysis"
	"wormhole/internal/deadlock"
	"wormhole/internal/graph"
	"wormhole/internal/lowerbound"
	"wormhole/internal/topology"
)

// eager is the adjacency a graph kept per node before it became an index
// built on demand: each node's out- and in-edges in ID order, appended as
// the edges were added.
type eager struct{ out, in [][]graph.EdgeID }

func eagerOf(g *graph.Graph) eager {
	a := eager{out: make([][]graph.EdgeID, g.NumNodes()), in: make([][]graph.EdgeID, g.NumNodes())}
	for _, e := range g.Edges() {
		a.out[e.Tail] = append(a.out[e.Tail], e.ID)
		a.in[e.Head] = append(a.in[e.Head], e.ID)
	}
	return a
}

// checkAdjacency compares every adjacency query of g with the eager lists.
func checkAdjacency(t *testing.T, g *graph.Graph) {
	t.Helper()
	want := eagerOf(g)
	maxDeg := 0
	for v := range g.NumNodes() {
		id := graph.NodeID(v)
		if got := g.Out(id); !slices.Equal(got, want.out[v]) {
			t.Fatalf("Out(%d) = %v, want %v", v, got, want.out[v])
		}
		if got := g.In(id); !slices.Equal(got, want.in[v]) {
			t.Fatalf("In(%d) = %v, want %v", v, got, want.in[v])
		}
		if g.OutDegree(id) != len(want.out[v]) || g.InDegree(id) != len(want.in[v]) {
			t.Fatalf("node %d: degrees %d/%d, want %d/%d", v, g.OutDegree(id), g.InDegree(id), len(want.out[v]), len(want.in[v]))
		}
		maxDeg = max(maxDeg, len(want.out[v]), len(want.in[v]))
		// FindEdge: the first out-edge of v reaching each head, and None
		// for a head v has no edge to.
		first := map[graph.NodeID]graph.EdgeID{}
		for _, e := range want.out[v] {
			if _, ok := first[g.Edge(e).Head]; !ok {
				first[g.Edge(e).Head] = e
			}
		}
		for head := range g.NumNodes() {
			wantE, ok := first[graph.NodeID(head)]
			if !ok {
				wantE = graph.None
			}
			if got := g.FindEdge(id, graph.NodeID(head)); got != wantE {
				t.Fatalf("FindEdge(%d, %d) = %d, want %d", v, head, got, wantE)
			}
		}
	}
	if got := g.MaxDegree(); got != maxDeg {
		t.Fatalf("MaxDegree = %d, want %d", got, maxDeg)
	}
}

// TestAdjacencyMatchesEagerLists runs every topology builder and checks
// that the on-demand index answers every adjacency query as the per-node
// lists did, and that DOT renders the bytes it rendered when every label
// was a stored string (the digests were recorded from that
// implementation; netviz prints this output).
func TestAdjacencyMatchesEagerLists(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		dot  string // SHA-256 of DOT(name), first 16 hex digits
	}{
		{"butterfly", topology.NewButterfly(16).G, "6397b4d184c15cc6"},
		{"two-pass butterfly", topology.NewTwoPassButterfly(8).G, "c7b8bc514d7ac12b"},
		{"mesh", topology.NewMesh(4, 3).G, "a1b58819eca82bd5"},
		{"torus", topology.NewTorus(4, 2, 3).G, "b03241e46d13cf13"},
		{"benes", topology.NewBenes(8).G, "d6e1cde9e9cb3224"},
		{"hypercube", topology.NewHypercube(16).G, "947a5547202d828e"},
		{"linear array", topology.NewLinearArray(5), "8d5313bbacf44137"},
		{"lowerbound", lowerbound.Build(lowerbound.Params{B: 2, TargetD: 5, TargetC: 6, L: 10}).G, "97454c092b1c411f"},
		{"deadlock ring", deadlock.NewRing(5, 2).G, "41c39a161b03e8fd"},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkAdjacency(t, c.g)
			sum := sha256.Sum256([]byte(c.g.DOT(c.name)))
			if got := fmt.Sprintf("%x", sum[:8]); got != c.dot {
				t.Errorf("DOT digest %s, want %s:\n%s", got, c.dot, c.g.DOT(c.name))
			}
		})
	}
	// analysis builds its channel-dependency graph from a path set and asks
	// only IsDAG of it, which walks Out: a one-class ring's workload closes
	// a dependency cycle, the dateline discipline's does not.
	for classes, want := range map[int]bool{1: false, 2: true} {
		set := deadlock.NewRing(6, classes).Workload(6, 5, 4)
		if got := analysis.ChannelDependencyAcyclic(set); got != want {
			t.Errorf("%d-class ring: ChannelDependencyAcyclic = %v, want %v", classes, got, want)
		}
	}
}

// TestAdjacencyParallelEdgesAndGrowth covers parallel edges (the lowest ID
// wins), a self-loop, and an AddEdge or AddNode after the index was built:
// the next query must see the new edge.
func TestAdjacencyParallelEdgesAndGrowth(t *testing.T) {
	g := graph.New(3, 8)
	g.AddNodes(3)
	a := g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1)
	g.AddEdge(2, 2)
	checkAdjacency(t, g)
	if g.FindEdge(0, 1) != a {
		t.Fatalf("FindEdge(0, 1) = %d, want the lowest parallel ID %d", g.FindEdge(0, 1), a)
	}
	if g.FindEdge(0, 2) != graph.None {
		t.Fatal("FindEdge(0, 2) found an edge that was never added")
	}
	late := g.AddEdge(0, 2)
	if g.FindEdge(0, 2) != late || g.OutDegree(0) != 3 {
		t.Fatalf("after AddEdge: FindEdge(0, 2) = %d, out-degree %d", g.FindEdge(0, 2), g.OutDegree(0))
	}
	v := g.AddNode("late")
	g.AddEdge(v, 0)
	checkAdjacency(t, g)
	if g.Label(v) != "late" || g.Label(0) != "" {
		t.Fatalf("labels %q, %q", g.Label(v), g.Label(0))
	}
}

// TestAdjacencyFirstUseConcurrent has many goroutines make a shared
// graph's first Out call at once, as parallel experiment workers do on a
// network they share; under -race it proves the index is published safely.
func TestAdjacencyFirstUseConcurrent(t *testing.T) {
	g := topology.NewButterfly(64).G
	want := eagerOf(g)
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := w; v < g.NumNodes(); v += 8 {
				if got := g.Out(graph.NodeID(v)); !slices.Equal(got, want.out[v]) {
					t.Errorf("Out(%d) = %v, want %v", v, got, want.out[v])
					return
				}
			}
		}()
	}
	wg.Wait()
}
