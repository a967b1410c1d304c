// Package graph provides the directed-multigraph substrate on which all
// networks in this repository are built.
//
// The paper's model is a directed network of unidirectional physical
// channels ("edges"), each of which multiplexes B virtual channels. This
// package knows nothing about flits or virtual channels; it supplies
// topology-neutral structure — node and edge identities, adjacency, and
// shortest-path machinery — that internal/topology instantiates into
// butterflies, meshes, and adversarial constructions, and that
// internal/vcsim animates.
//
// A graph stores what a network is: its edge list (12 bytes an edge) and a
// node count. Adjacency is derived — a compressed index built on the first
// Out, In, FindEdge or degree query and dropped again by the next AddNode
// or AddEdge — and node labels are either stored for the nodes given one or
// computed on demand (LabelWith). Nothing on the simulation path asks for
// either: a simulator reads NumEdges, and routes are arithmetic or
// precomputed. So a 4096-input butterfly costs 1.2 MB before a simulator
// adds its per-edge credit state, and no traffic run builds the index
// (vcsim's TestRetainedBytesPerEdge measures the whole budget).
package graph

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// NodeID identifies a node. IDs are dense: a graph with N nodes uses IDs
// 0..N-1.
type NodeID int32

// EdgeID identifies a directed edge. IDs are dense: a graph with M edges
// uses IDs 0..M-1.
type EdgeID int32

// None is the sentinel for "no node" / "no edge".
const None = -1

// Edge is a directed physical channel from Tail to Head. Flits flow
// Tail → Head; the flit buffer described by the paper sits at the head.
type Edge struct {
	ID   EdgeID
	Tail NodeID
	Head NodeID
}

// Graph is a directed multigraph. The zero value is an empty graph ready to
// use. Graphs are append-only: nodes and edges can be added but never
// removed, which keeps IDs dense and lets simulators index per-edge state
// with plain slices. A graph that is no longer growing may be read from
// any number of goroutines; adding to it is not safe alongside readers.
type Graph struct {
	edges []Edge
	nodes int
	// labels holds the labels given to AddNode, indexed by node; it stops
	// at the last labeled node, and stays nil while none was labeled.
	labels  []string
	labeler func(NodeID) string // LabelWith's namer for the unlabeled nodes
	adj     atomic.Pointer[adjacency]
}

// adjacency is the compressed (CSR) index behind Out and In: node v's
// out-edges are out[outAt[v]:outAt[v+1]] in ID order, and likewise for
// in-edges.
type adjacency struct {
	outAt, inAt []int32
	out, in     []EdgeID
}

// New returns an empty graph with capacity for m edges. The node count n is
// a hint kept for symmetry with the edge count: nodes cost nothing to add.
func New(n, m int) *Graph {
	return &Graph{edges: make([]Edge, 0, m)}
}

// AddNode creates a new node with an optional label and returns its ID.
func (g *Graph) AddNode(label string) NodeID {
	id := NodeID(g.nodes)
	g.nodes++
	if label != "" {
		for len(g.labels) < int(id) {
			g.labels = append(g.labels, "")
		}
		g.labels = append(g.labels, label)
	}
	g.dropAdjacency()
	return id
}

// AddNodes creates k unlabeled nodes and returns the ID of the first; the
// remainder follow consecutively.
func (g *Graph) AddNodes(k int) NodeID {
	first := NodeID(g.nodes)
	g.nodes += k
	g.dropAdjacency()
	return first
}

// LabelWith names every node AddNode was not given a label for by calling
// name on demand, so a builder whose labels are arithmetic in the node ID
// (a butterfly's (column, level)) stores none of them.
func (g *Graph) LabelWith(name func(NodeID) string) { g.labeler = name }

// AddEdge creates a directed edge tail → head and returns its ID. Parallel
// edges and self-loops are permitted (the Theorem 2.2.1 construction uses
// parallel primary edges when replicating messages).
func (g *Graph) AddEdge(tail, head NodeID) EdgeID {
	if !g.HasNode(tail) || !g.HasNode(head) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with unknown node (have %d nodes)", tail, head, g.NumNodes()))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, Tail: tail, Head: head})
	g.dropAdjacency()
	return id
}

// AddBiEdge creates a pair of antiparallel edges between u and v and returns
// both IDs (u→v first).
func (g *Graph) AddBiEdge(u, v NodeID) (uv, vu EdgeID) {
	return g.AddEdge(u, v), g.AddEdge(v, u)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// HasNode reports whether id names an existing node.
func (g *Graph) HasNode(id NodeID) bool { return id >= 0 && int(id) < g.nodes }

// HasEdge reports whether id names an existing edge.
func (g *Graph) HasEdge(id EdgeID) bool { return id >= 0 && int(id) < len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge {
	return g.edges[id]
}

// Edges returns all edges. The returned slice is owned by the graph and must
// not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the IDs of edges leaving v, in ID order. Owned by the graph;
// read-only.
func (g *Graph) Out(v NodeID) []EdgeID {
	a := g.adjacency()
	return a.out[a.outAt[v]:a.outAt[v+1]:a.outAt[v+1]]
}

// In returns the IDs of edges entering v, in ID order. Owned by the graph;
// read-only.
func (g *Graph) In(v NodeID) []EdgeID {
	a := g.adjacency()
	return a.in[a.inAt[v]:a.inAt[v+1]:a.inAt[v+1]]
}

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.Out(v)) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v NodeID) int { return len(g.In(v)) }

// Label returns the label assigned to v at creation, else the LabelWith
// namer's, else "".
func (g *Graph) Label(v NodeID) string {
	if int(v) < len(g.labels) && g.labels[v] != "" {
		return g.labels[v]
	}
	if g.labeler != nil {
		return g.labeler(v)
	}
	return ""
}

// FindEdge returns the ID of some edge tail → head, or None if no such edge
// exists. With parallel edges the lowest ID wins.
func (g *Graph) FindEdge(tail, head NodeID) EdgeID {
	for _, e := range g.Out(tail) {
		if g.edges[e].Head == head {
			return e
		}
	}
	return None
}

// MaxDegree returns the maximum of in- and out-degree over all nodes.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.OutDegree(NodeID(v)); d > max {
			max = d
		}
		if d := g.InDegree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// adjacency returns the graph's CSR index, building it on first use.
// Concurrent first callers may each build one; the first to publish wins
// and every caller returns that one, so all readers share the same slices.
func (g *Graph) adjacency() *adjacency {
	if a := g.adj.Load(); a != nil {
		return a
	}
	a := &adjacency{
		outAt: make([]int32, g.nodes+1),
		inAt:  make([]int32, g.nodes+1),
		out:   make([]EdgeID, len(g.edges)),
		in:    make([]EdgeID, len(g.edges)),
	}
	for _, e := range g.edges {
		a.outAt[e.Tail+1]++
		a.inAt[e.Head+1]++
	}
	for v := 0; v < g.nodes; v++ {
		a.outAt[v+1] += a.outAt[v]
		a.inAt[v+1] += a.inAt[v]
	}
	// Fill in ID order, using outAt[v] itself as node v's cursor: it ends
	// at v's end, which is v+1's start, so one shift restores the starts.
	for _, e := range g.edges {
		a.out[a.outAt[e.Tail]] = e.ID
		a.outAt[e.Tail]++
		a.in[a.inAt[e.Head]] = e.ID
		a.inAt[e.Head]++
	}
	copy(a.outAt[1:], a.outAt[:g.nodes])
	copy(a.inAt[1:], a.inAt[:g.nodes])
	a.outAt[0], a.inAt[0] = 0, 0
	if !g.adj.CompareAndSwap(nil, a) {
		a = g.adj.Load()
	}
	return a
}

// dropAdjacency discards a built index after the graph grew.
func (g *Graph) dropAdjacency() {
	if g.adj.Load() != nil {
		g.adj.Store(nil)
	}
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d}", g.NumNodes(), g.NumEdges())
}

// DOT renders the graph in Graphviz DOT format. Node labels are used when
// present; otherwise numeric IDs.
func (g *Graph) DOT(name string) string {
	return g.DOTEdges(name, nil)
}

// DOTEdges renders the graph in Graphviz DOT format with per-edge
// attributes: for each edge, attr (when non-nil) returns the attribute
// list to place in the edge statement's brackets — e.g. `color="#d73027"`
// — or "" for a bare edge. Telemetry heatmap overlays (cmd/netviz) are
// the intended caller.
func (g *Graph) DOTEdges(name string, attr func(EdgeID) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for v := 0; v < g.NumNodes(); v++ {
		label := g.Label(NodeID(v))
		if label == "" {
			label = fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v, label)
	}
	for i, e := range g.edges {
		if attr != nil {
			if a := attr(EdgeID(i)); a != "" {
				fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", e.Tail, e.Head, a)
				continue
			}
		}
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e.Tail, e.Head)
	}
	b.WriteString("}\n")
	return b.String()
}
