package message

import "wormhole/internal/graph"

// Endpoints names a source/destination pair before path selection.
type Endpoints struct {
	Src graph.NodeID
	Dst graph.NodeID
}

// Build routes each endpoint pair with the router and collects the results
// into a Set with uniform message length.
func Build(g *graph.Graph, pairs []Endpoints, length int, route Router) *Set {
	s := NewSet(g)
	for _, p := range pairs {
		s.Add(p.Src, p.Dst, length, route(p.Src, p.Dst))
	}
	return s
}

// Transpose returns endpoint pairs for the matrix-transpose permutation on
// a square mesh side×side: node (x, y) sends to node (y, x). nodeAt maps
// coordinates to node IDs. Transpose traffic is a classic congestion
// hotspot along the diagonal.
func Transpose(side int, nodeAt func(x, y int) graph.NodeID) []Endpoints {
	var out []Endpoints
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			if x == y {
				continue // already in place; no message needed
			}
			out = append(out, Endpoints{Src: nodeAt(x, y), Dst: nodeAt(y, x)})
		}
	}
	return out
}
