// Package message defines the routing workload: messages ("worms") with a
// source, a destination, a flit length L, and a pre-selected path.
//
// Following the paper, path selection is decoupled from scheduling: a
// Set fixes every message's path up front, and the schedulers and
// simulators in other packages only ever see the resulting paths. The
// package also carries workload generators for the canonical problems the
// paper studies — permutations, q-relations, and random destinations.
package message

import (
	"fmt"

	"wormhole/internal/graph"
)

// ID identifies a message within a Set. IDs are dense: a set of n messages
// uses IDs 0..n-1.
type ID int32

// Message is a worm of Length flits that must travel from Src to Dst along
// Path. Length includes the header flit. A message with an empty path is
// already at its destination and is delivered without entering the network.
type Message struct {
	ID     ID
	Src    graph.NodeID
	Dst    graph.NodeID
	Length int
	Path   graph.Path
}

// Set is an ordered collection of messages sharing one network.
type Set struct {
	G    *graph.Graph
	Msgs []Message
}

// NewSet returns an empty message set over g.
func NewSet(g *graph.Graph) *Set {
	return &Set{G: g}
}

// Add appends a message with the given endpoints, length, and path, and
// returns its ID. It panics if the path does not connect src to dst, so a
// Set can never hold an inconsistent workload.
func (s *Set) Add(src, dst graph.NodeID, length int, path graph.Path) ID {
	if length < 1 {
		panic(fmt.Sprintf("message: length %d < 1", length))
	}
	if err := path.Validate(s.G, src, dst); err != nil {
		panic(fmt.Sprintf("message: invalid path for %d→%d: %v", src, dst, err))
	}
	id := ID(len(s.Msgs))
	s.Msgs = append(s.Msgs, Message{ID: id, Src: src, Dst: dst, Length: length, Path: path})
	return id
}

// Len returns the number of messages in the set.
func (s *Set) Len() int { return len(s.Msgs) }

// Get returns the message with the given ID.
func (s *Set) Get(id ID) Message { return s.Msgs[id] }

// EdgeSimple reports whether every path in the set is edge-simple, the
// precondition of Theorem 2.1.6.
func (s *Set) EdgeSimple() bool {
	for i := range s.Msgs {
		if !s.Msgs[i].Path.EdgeSimple() {
			return false
		}
	}
	return true
}

// MaxLength returns the largest message length L in the set (0 if empty).
func (s *Set) MaxLength() int {
	max := 0
	for i := range s.Msgs {
		if s.Msgs[i].Length > max {
			max = s.Msgs[i].Length
		}
	}
	return max
}

// Subset returns a new Set containing the messages with the given IDs, in
// order, renumbered densely. The mapping from new to original IDs is
// returned alongside.
func (s *Set) Subset(ids []ID) (*Set, []ID) {
	out := &Set{G: s.G, Msgs: make([]Message, 0, len(ids))}
	orig := make([]ID, 0, len(ids))
	for _, id := range ids {
		m := s.Msgs[id]
		m.ID = ID(len(out.Msgs))
		out.Msgs = append(out.Msgs, m)
		orig = append(orig, id)
	}
	return out, orig
}

// Router produces a path for a (src, dst) pair. Topology packages provide
// concrete routers (butterfly bit-fixing, mesh dimension-order, BFS).
type Router func(src, dst graph.NodeID) graph.Path

// ShortestPathRouter returns a Router that BFS-routes on g. It panics at
// routing time if dst is unreachable from src.
func ShortestPathRouter(g *graph.Graph) Router {
	return func(src, dst graph.NodeID) graph.Path {
		p, ok := graph.ShortestPath(g, src, dst)
		if !ok {
			panic(fmt.Sprintf("message: no path %d→%d", src, dst))
		}
		return p
	}
}
