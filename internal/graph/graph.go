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
package graph

import (
	"fmt"
	"strings"
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
// with plain slices.
type Graph struct {
	edges []Edge
	// out[v] and in[v] list edge IDs incident to node v.
	out   [][]EdgeID
	in    [][]EdgeID
	names []string // optional node labels
}

// New returns an empty graph with capacity hints for n nodes and m edges.
func New(n, m int) *Graph {
	g := &Graph{
		edges: make([]Edge, 0, m),
		out:   make([][]EdgeID, 0, n),
		in:    make([][]EdgeID, 0, n),
		names: make([]string, 0, n),
	}
	return g
}

// AddNode creates a new node with an optional label and returns its ID.
func (g *Graph) AddNode(label string) NodeID {
	id := NodeID(len(g.out))
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.names = append(g.names, label)
	return id
}

// AddNodes creates k unlabeled nodes and returns the ID of the first; the
// remainder follow consecutively.
func (g *Graph) AddNodes(k int) NodeID {
	first := NodeID(len(g.out))
	for i := 0; i < k; i++ {
		g.AddNode("")
	}
	return first
}

// AddEdge creates a directed edge tail → head and returns its ID. Parallel
// edges and self-loops are permitted (the Theorem 2.2.1 construction uses
// parallel primary edges when replicating messages).
func (g *Graph) AddEdge(tail, head NodeID) EdgeID {
	if !g.HasNode(tail) || !g.HasNode(head) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with unknown node (have %d nodes)", tail, head, g.NumNodes()))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, Tail: tail, Head: head})
	g.out[tail] = append(g.out[tail], id)
	g.in[head] = append(g.in[head], id)
	return id
}

// AddBiEdge creates a pair of antiparallel edges between u and v and returns
// both IDs (u→v first).
func (g *Graph) AddBiEdge(u, v NodeID) (uv, vu EdgeID) {
	return g.AddEdge(u, v), g.AddEdge(v, u)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// HasNode reports whether id names an existing node.
func (g *Graph) HasNode(id NodeID) bool { return id >= 0 && int(id) < len(g.out) }

// HasEdge reports whether id names an existing edge.
func (g *Graph) HasEdge(id EdgeID) bool { return id >= 0 && int(id) < len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge {
	return g.edges[id]
}

// Edges returns all edges. The returned slice is owned by the graph and must
// not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the IDs of edges leaving v. Owned by the graph; read-only.
func (g *Graph) Out(v NodeID) []EdgeID { return g.out[v] }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.out[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// Label returns the label assigned to v at creation ("" if none).
func (g *Graph) Label(v NodeID) string { return g.names[v] }

// FindEdge returns the ID of some edge tail → head, or None if no such edge
// exists. With parallel edges the lowest ID wins.
func (g *Graph) FindEdge(tail, head NodeID) EdgeID {
	for _, e := range g.out[tail] {
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
		label := g.names[v]
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
