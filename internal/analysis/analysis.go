// Package analysis computes the path-set quantities the paper's bounds are
// stated in — congestion C, dilation D, multiplex size — plus the
// conflict-graph coloring behind the naive O((L+D)·C·D) bound (footnote 5)
// and the channel-dependency acyclicity check used to certify
// deadlock-freedom.
package analysis

import (
	"wormhole/internal/graph"
	"wormhole/internal/message"
)

// Congestion returns C: the maximum, over edges, of the number of messages
// whose paths cross that edge. An empty set has congestion 0.
func Congestion(s *message.Set) int {
	load := EdgeLoads(s)
	max := 0
	for _, c := range load {
		if c > max {
			max = c
		}
	}
	return max
}

// EdgeLoads returns the per-edge message counts, indexed by EdgeID.
func EdgeLoads(s *message.Set) []int {
	load := make([]int, s.G.NumEdges())
	for i := range s.Msgs {
		for _, e := range s.Msgs[i].Path {
			load[e]++
		}
	}
	return load
}

// Dilation returns D: the length (in edges) of the longest path in the set.
func Dilation(s *message.Set) int {
	max := 0
	for i := range s.Msgs {
		if l := len(s.Msgs[i].Path); l > max {
			max = l
		}
	}
	return max
}

// MultiplexSize returns, for a coloring of the messages (color[id] = class),
// the maximum over all edges and color classes of the number of same-class
// messages crossing one edge — Definition 2.1.4 of the paper. A valid
// wormhole schedule with B virtual channels needs multiplex size ≤ B in
// every released class.
func MultiplexSize(s *message.Set, color []int) int {
	type key struct {
		e graph.EdgeID
		c int
	}
	counts := make(map[key]int)
	max := 0
	for i := range s.Msgs {
		c := color[i]
		for _, e := range s.Msgs[i].Path {
			k := key{e, c}
			counts[k]++
			if counts[k] > max {
				max = counts[k]
			}
		}
	}
	return max
}

// ConflictGraph returns the adjacency lists of the worm conflict graph: one
// vertex per message, an edge between two messages whose paths share a
// network edge. This is the graph behind the naive coloring bound: its
// degree is at most D·(C−1).
func ConflictGraph(s *message.Set) [][]int32 {
	n := s.Len()
	adj := make([][]int32, n)
	// Bucket messages by edge, then connect all pairs in a bucket.
	byEdge := make([][]int32, s.G.NumEdges())
	for i := range s.Msgs {
		for _, e := range s.Msgs[i].Path {
			byEdge[e] = append(byEdge[e], int32(i))
		}
	}
	seen := make([]map[int32]struct{}, n)
	for i := range seen {
		seen[i] = make(map[int32]struct{})
	}
	for _, bucket := range byEdge {
		for i := 0; i < len(bucket); i++ {
			for j := i + 1; j < len(bucket); j++ {
				a, b := bucket[i], bucket[j]
				if a == b {
					continue
				}
				if _, dup := seen[a][b]; dup {
					continue
				}
				seen[a][b] = struct{}{}
				seen[b][a] = struct{}{}
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	return adj
}

// GreedyColor colors the conflict graph greedily in vertex order and
// returns (colors, number of colors used). Greedy uses at most Δ+1 colors
// where Δ is the conflict-graph degree, matching footnote 5's
// D·(C−1)+1 bound.
func GreedyColor(adj [][]int32) ([]int, int) {
	n := len(adj)
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	maxColor := 0
	taken := make(map[int]struct{})
	for v := 0; v < n; v++ {
		clear(taken)
		for _, u := range adj[v] {
			if color[u] >= 0 {
				taken[color[u]] = struct{}{}
			}
		}
		c := 0
		for {
			if _, bad := taken[c]; !bad {
				break
			}
			c++
		}
		color[v] = c
		if c+1 > maxColor {
			maxColor = c + 1
		}
	}
	return color, maxColor
}

// ChannelDependencyAcyclic reports whether the channel dependency graph of
// the path set is acyclic. The dependency graph has one vertex per network
// edge and an arc e→f whenever some message's path uses f immediately
// after e. Acyclic dependency graphs certify that greedy wormhole routing
// of this path set cannot deadlock (Dally–Seitz).
func ChannelDependencyAcyclic(s *message.Set) bool {
	m := s.G.NumEdges()
	dep := graph.New(m, m)
	dep.AddNodes(m)
	type arc struct{ a, b graph.EdgeID }
	added := make(map[arc]struct{})
	for i := range s.Msgs {
		p := s.Msgs[i].Path
		for j := 0; j+1 < len(p); j++ {
			k := arc{p[j], p[j+1]}
			if _, dup := added[k]; dup {
				continue
			}
			added[k] = struct{}{}
			dep.AddEdge(graph.NodeID(p[j]), graph.NodeID(p[j+1]))
		}
	}
	return graph.IsDAG(dep)
}

// CollidingSubset searches the message set for B+1 messages sharing one
// edge and returns their IDs (or nil if congestion ≤ B). This realizes
// Definition 3.2.2: a set of messages "collides" when such a subset exists.
func CollidingSubset(s *message.Set, b int) []message.ID {
	byEdge := make(map[graph.EdgeID][]message.ID)
	for i := range s.Msgs {
		for _, e := range s.Msgs[i].Path {
			byEdge[e] = append(byEdge[e], message.ID(i))
			if len(byEdge[e]) == b+1 {
				return append([]message.ID(nil), byEdge[e]...)
			}
		}
	}
	return nil
}
