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

// StronglyConnected reports whether every node can reach every other node:
// node 0 reaches them all along out-edges and is reached by them all, which
// is the same search along in-edges.
func StronglyConnected(g *graph.Graph) bool {
	n := g.NumNodes()
	return n <= 1 || reachCount(g, false) == n && reachCount(g, true) == n
}

// reachCount counts the nodes a search from node 0 visits, following edges
// forward or, when backward, against their direction.
func reachCount(g *graph.Graph, backward bool) int {
	next := g.Out
	if backward {
		next = g.In
	}
	seen := make([]bool, g.NumNodes())
	seen[0] = true
	stack := []graph.NodeID{0}
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range next(v) {
			u := g.Edge(id).Head
			if backward {
				u = g.Edge(id).Tail
			}
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count
}
