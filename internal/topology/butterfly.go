// Package topology constructs the networks used throughout the paper:
// butterflies (plain, wrapped, and back-to-back two-pass), meshes, toruses,
// hypercubes, linear arrays, and random regular digraphs.
//
// Constructors return both the graph and a coordinate scheme so that
// algorithms can translate between (column, level) positions and node IDs
// without re-deriving the layout.
package topology

import (
	"fmt"

	"wormhole/internal/graph"
	"wormhole/internal/rng"
)

// Butterfly is an n-input butterfly network as defined in Section 1.2 of
// the paper: n(log n + 1) nodes arranged in log n + 1 levels of n nodes
// each. Node (w, i) sits in column w (a log n-bit number) at level i.
// Edges are directed downward, level i → level i+1: the "straight" edge
// keeps the column, the "cross" edge flips bit i+1 (bit positions numbered
// 1..log n from the most significant, per the paper).
//
// Level 0 nodes are the inputs; level log n nodes are the outputs.
type Butterfly struct {
	G      *graph.Graph
	Inputs int // n
	Levels int // log n (number of edge stages)
}

// NewButterfly builds an n-input butterfly. n must be a power of two ≥ 2.
func NewButterfly(n int) *Butterfly {
	k := log2Exact(n)
	g := graph.New(n*(k+1), 2*n*k)
	b := &Butterfly{G: g, Inputs: n, Levels: k}
	g.AddNodes(n * (k + 1))
	g.LabelWith(levelLabels(n, k))
	for lvl := 0; lvl < k; lvl++ {
		for w := 0; w < n; w++ {
			// Straight edge: same column.
			g.AddEdge(b.Node(w, lvl), b.Node(w, lvl+1))
			// Cross edge: flip the bit at position lvl+1 (1-indexed from
			// the most significant bit).
			g.AddEdge(b.Node(w, lvl), b.Node(flipBit(w, k, lvl+1), lvl+1))
		}
	}
	return b
}

// Node returns the ID of the node in column w at level lvl.
func (b *Butterfly) Node(w, lvl int) graph.NodeID {
	return graph.NodeID(lvl*b.Inputs + w)
}

// Column returns the column of node id.
func (b *Butterfly) Column(id graph.NodeID) int { return int(id) % b.Inputs }

// Level returns the level of node id.
func (b *Butterfly) Level(id graph.NodeID) int { return int(id) / b.Inputs }

// Input returns the ID of input w (level 0).
func (b *Butterfly) Input(w int) graph.NodeID { return b.Node(w, 0) }

// Output returns the ID of output w (level log n).
func (b *Butterfly) Output(w int) graph.NodeID { return b.Node(w, b.Levels) }

// Route returns the unique downward path from input column src to output
// column dst: at level i the path follows the straight edge if bit i+1 of
// src and dst agree and the cross edge otherwise (bit-fixing). The result
// is a fresh slice the caller owns.
func (b *Butterfly) Route(src, dst int) graph.Path {
	return b.AppendRoute(make(graph.Path, 0, b.Levels), src, dst)
}

// AppendRoute appends the Route(src, dst) path to buf and returns the
// extended slice, allocating only if buf lacks capacity for log n more
// edges.
//
//wormvet:hotpath
func (b *Butterfly) AppendRoute(buf graph.Path, src, dst int) graph.Path {
	return appendBitFix(buf, b.Inputs, b.Levels, 0, src, dst)
}

// appendBitFix appends the levels bit-fixing edges that take column src to
// column dst through a run of butterfly stages whose first stage's nodes
// start at node ID base. The path is arithmetic in (src, dst): the
// constructors add the straight then the cross edge of each node in node
// order, so node v's out-edges are 2v and 2v+1, and the bits of src ^ dst,
// consumed from the most significant, say which of the two each level
// takes. The loop is branch-free on purpose — destination bits are random,
// so a per-hop branch would mispredict every other hop.
//
//wormvet:hotpath
func appendBitFix(buf graph.Path, n, levels, base, src, dst int) graph.Path {
	diff := src ^ dst
	w := src
	for sh := levels - 1; sh >= 0; sh-- {
		bit := diff >> sh & 1
		buf = append(buf, graph.EdgeID(2*(base+w)+bit))
		w ^= bit << sh
		base += n
	}
	return buf
}

// TwoPassButterfly is the unrolled network used by the Section 3.1
// algorithm: a message first routes down one butterfly to a random column
// at level log n, then down a second (mirrored) butterfly to its true
// destination (Figure 2 of the paper). Unrolling the two passes into a
// 2·log n-stage leveled DAG models the pipelined double traversal while
// keeping the network acyclic, so drop-on-delay routing cannot deadlock.
type TwoPassButterfly struct {
	G      *graph.Graph
	Inputs int
	Levels int // log n; total edge stages = 2*log n
}

// NewTwoPassButterfly builds the back-to-back butterfly on n inputs.
func NewTwoPassButterfly(n int) *TwoPassButterfly {
	k := log2Exact(n)
	g := graph.New(n*(2*k+1), 4*n*k)
	t := &TwoPassButterfly{G: g, Inputs: n, Levels: k}
	g.AddNodes(n * (2*k + 1))
	g.LabelWith(levelLabels(n, k))
	for lvl := 0; lvl < 2*k; lvl++ {
		// Stage lvl fixes butterfly bit (lvl mod k) + 1: the first pass
		// fixes bits 1..k, then the second pass fixes them again.
		bit := lvl%k + 1
		for w := 0; w < n; w++ {
			g.AddEdge(t.Node(w, lvl), t.Node(w, lvl+1))
			g.AddEdge(t.Node(w, lvl), t.Node(flipBit(w, k, bit), lvl+1))
		}
	}
	return t
}

// Node returns the ID of the node in column w at level lvl (0..2·log n).
func (t *TwoPassButterfly) Node(w, lvl int) graph.NodeID {
	return graph.NodeID(lvl*t.Inputs + w)
}

// Column returns the column of node id.
func (t *TwoPassButterfly) Column(id graph.NodeID) int { return int(id) % t.Inputs }

// Input returns the ID of input w (level 0).
func (t *TwoPassButterfly) Input(w int) graph.NodeID { return t.Node(w, 0) }

// Output returns the ID of output w (level 2·log n).
func (t *TwoPassButterfly) Output(w int) graph.NodeID { return t.Node(w, 2*t.Levels) }

// Route returns the two-pass path from input column src through intermediate
// column mid (reached at level log n) to output column dst: the bit-fixing
// walk twice over the unrolled levels.
func (t *TwoPassButterfly) Route(src, mid, dst int) graph.Path {
	p := make(graph.Path, 0, 2*t.Levels)
	p = appendBitFix(p, t.Inputs, t.Levels, 0, src, mid)
	return appendBitFix(p, t.Inputs, t.Levels, t.Levels*t.Inputs, mid, dst)
}

// RandomRoute picks a uniform intermediate column and returns the resulting
// two-pass path along with the chosen column.
func (t *TwoPassButterfly) RandomRoute(src, dst int, r *rng.Source) (graph.Path, int) {
	mid := r.Intn(t.Inputs)
	return t.Route(src, mid, dst), mid
}

// levelLabels names the nodes of a leveled layout with n nodes a level, node
// lvl·n + w being column w at level lvl, as "(w in k binary digits,lvl)".
// The graph computes each label when asked instead of storing them all.
func levelLabels(n, k int) func(graph.NodeID) string {
	return func(v graph.NodeID) string {
		return fmt.Sprintf("(%0*b,%d)", k, int(v)%n, int(v)/n)
	}
}

// --- bit helpers -----------------------------------------------------------
//
// The paper numbers bit positions 1..log n with position 1 the most
// significant bit of the column number.

// flipBit flips bit `pos` of the k-bit word w.
func flipBit(w, k, pos int) int {
	return w ^ (1 << (k - pos))
}

// log2Exact returns log2(n) and panics unless n is a power of two ≥ 2.
func log2Exact(n int) int {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("topology: size %d is not a power of two ≥ 2", n))
	}
	k := 0
	for v := n; v > 1; v >>= 1 {
		k++
	}
	return k
}

// Log2 returns ⌈log2(n)⌉ for n ≥ 1. It is exported for use by experiment
// code that sets L = log n and q = log n.
func Log2(n int) int {
	if n < 1 {
		panic("topology: Log2 of non-positive value")
	}
	k := 0
	for v := n - 1; v > 0; v >>= 1 {
		k++
	}
	if k == 0 {
		return 1 // the paper's message-length floors: log 1 treated as 1
	}
	return k
}
