package topology

import (
	"fmt"

	"wormhole/internal/graph"
	"wormhole/internal/rng"
)

// Hypercube is an n-node boolean hypercube, n a power of two. Node IDs are
// the corner labels; antiparallel edge pairs connect labels at Hamming
// distance one.
type Hypercube struct {
	G    *graph.Graph
	Dim  int // log n
	Size int // n
}

// NewHypercube builds the hypercube on n = 2^k nodes.
func NewHypercube(n int) *Hypercube {
	k := log2Exact(n)
	g := graph.New(n, n*k)
	for v := 0; v < n; v++ {
		g.AddNode(fmt.Sprintf("%0*b", k, v))
	}
	for v := 0; v < n; v++ {
		for d := 0; d < k; d++ {
			u := v ^ (1 << d)
			if u > v {
				g.AddBiEdge(graph.NodeID(v), graph.NodeID(u))
			}
		}
	}
	return &Hypercube{G: g, Dim: k, Size: n}
}

// NewLinearArray builds a path graph on n nodes with antiparallel edges.
// Linear arrays realize exactly the worst case of the naive coloring bound
// and make handy unit-test fixtures.
func NewLinearArray(n int) *graph.Graph {
	if n < 1 {
		panic("topology: linear array needs at least one node")
	}
	g := graph.New(n, 2*(n-1))
	for v := 0; v < n; v++ {
		g.AddNode(fmt.Sprintf("%d", v))
	}
	for v := 0; v+1 < n; v++ {
		g.AddBiEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	return g
}

// NewRandomRegular builds a random d-regular digraph on n nodes as the
// union of d uniform random permutation digraphs (edge v → π_i(v) for each
// of d independent permutations π_i). Every node has in-degree and
// out-degree exactly d, and for d ≥ 2 the union is strongly connected with
// high probability; callers that require connectivity should check and
// redraw. Fixed points of a permutation yield (harmless) self-loops; the
// retry loop in callers filters graphs where that matters.
func NewRandomRegular(n, d int, r *rng.Source) *graph.Graph {
	if d < 1 || n < 2 {
		panic("topology: random regular graph needs n ≥ 2, d ≥ 1")
	}
	g := graph.New(n, n*d)
	for v := 0; v < n; v++ {
		g.AddNode(fmt.Sprintf("%d", v))
	}
	for i := 0; i < d; i++ {
		pi := r.Perm(n)
		for v := 0; v < n; v++ {
			if pi[v] == v {
				continue // skip self-loops; they carry no traffic
			}
			g.AddEdge(graph.NodeID(v), graph.NodeID(pi[v]))
		}
	}
	return g
}

// StronglyConnected reports whether every node can reach every other node.
func StronglyConnected(g *graph.Graph) bool {
	n := g.NumNodes()
	if n <= 1 {
		return true
	}
	if reachCount(g, 0) != n {
		return false
	}
	// Reverse reachability: build the transpose once.
	rev := graph.New(n, g.NumEdges())
	for v := 0; v < n; v++ {
		rev.AddNode("")
	}
	for _, e := range g.Edges() {
		rev.AddEdge(e.Head, e.Tail)
	}
	return reachCount(rev, 0) == n
}

func reachCount(g *graph.Graph, src graph.NodeID) int {
	count := 0
	for _, d := range graph.BFSDistances(g, src) {
		if d >= 0 {
			count++
		}
	}
	return count
}
