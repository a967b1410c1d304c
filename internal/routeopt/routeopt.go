// Package routeopt implements congestion-aware path selection — the
// other half of the routing problem the paper deliberately leaves out.
//
// The paper's Section 1.3.1 cites Srinivasan–Teo: given only sources and
// destinations, paths can be chosen so that C+D is within a constant of
// optimal, after which a scheduler (like this repository's Theorem 2.1.6
// implementation) finishes the job. This package supplies practical
// selectors in that spirit:
//
//   - GreedyMinMax routes messages sequentially on a path minimizing the
//     (lexicographic) bottleneck load among near-shortest paths, via
//     Dijkstra over load-penalized edge weights;
//   - Rebalance iterates one-message reroutes while they reduce
//     congestion — a local search that certifies a local optimum.
//
// Neither carries Srinivasan–Teo's approximation guarantee (their LP
// rounding is out of scope); both are measured against plain BFS routing
// in tests and experiments, where they reliably cut C on skewed traffic.
package routeopt

import (
	"container/heap"
	"fmt"

	"wormhole/internal/analysis"
	"wormhole/internal/graph"
	"wormhole/internal/message"
)

const (
	// stretch bounds path length: candidate paths may be at most
	// stretch × (shortest-path length), rounded up.
	stretch = 1.5
	// basePenalty is the extra weight per unit of existing load on an
	// edge; larger values avoid hot edges more aggressively.
	basePenalty = 8
)

// GreedyMinMax routes each endpoint pair in order on a load-penalized
// shortest path, updating loads as it goes, and returns the message set.
// Paths are guaranteed within the stretch bound of shortest; messages
// whose destination is unreachable cause a panic.
func GreedyMinMax(g *graph.Graph, pairs []message.Endpoints, length int) *message.Set {
	load := make([]int, g.NumEdges())
	set := message.NewSet(g)
	for _, ep := range pairs {
		p := penalizedPath(g, ep.Src, ep.Dst, load)
		if p == nil {
			panic(fmt.Sprintf("routeopt: no path %d→%d", ep.Src, ep.Dst))
		}
		for _, e := range p {
			load[e]++
		}
		set.Add(ep.Src, ep.Dst, length, p)
	}
	return set
}

// Rebalance performs local search on an existing set: repeatedly pick a
// message crossing a maximum-load edge and reroute it if some alternate
// path strictly lowers the set's congestion. It mutates the set in place
// and returns the number of reroutes applied and the final congestion.
func Rebalance(set *message.Set) (reroutes, congestion int) {
	maxRounds := 4 * set.Len()
	g := set.G
	load := analysis.EdgeLoads(set)

	for round := 0; round < maxRounds; round++ {
		// Find the current bottleneck.
		maxLoad, hot := 0, graph.EdgeID(graph.None)
		for e, l := range load {
			if l > maxLoad {
				maxLoad, hot = l, graph.EdgeID(e)
			}
		}
		if maxLoad <= 1 {
			break
		}
		improved := false
		for i := range set.Msgs {
			m := &set.Msgs[i]
			crossesHot := false
			for _, e := range m.Path {
				if e == hot {
					crossesHot = true
					break
				}
			}
			if !crossesHot {
				continue
			}
			// Remove, reroute against the residual load, keep if the
			// bottleneck along the new path is strictly better.
			for _, e := range m.Path {
				load[e]--
			}
			alt := penalizedPath(g, m.Src, m.Dst, load)
			better := alt != nil && pathBottleneck(load, alt) < maxLoad
			if better {
				m.Path = alt
				reroutes++
				improved = true
			}
			for _, e := range m.Path {
				load[e]++
			}
			if improved {
				break
			}
		}
		if !improved {
			break
		}
	}
	return reroutes, analysis.Congestion(set)
}

// pathBottleneck returns the maximum residual load along p plus one (the
// load the path would see after adding the message).
func pathBottleneck(load []int, p graph.Path) int {
	max := 0
	for _, e := range p {
		if load[e] >= max {
			max = load[e] + 1
		}
	}
	return max
}

// penalizedPath runs Dijkstra with weight 1 + penalty·load per edge and
// rejects results longer than the stretch bound; on rejection it retries
// with halved penalties until the bound is met (penalty 0 degenerates to
// BFS, which meets any stretch ≥ 1).
func penalizedPath(g *graph.Graph, src, dst graph.NodeID, load []int) graph.Path {
	base, ok := graph.ShortestPath(g, src, dst)
	if !ok {
		return nil
	}
	limit := int(stretch*float64(len(base)) + 0.999)
	for penalty := basePenalty; ; penalty /= 2 {
		p := dijkstra(g, src, dst, load, penalty)
		if p != nil && len(p) <= limit {
			return p
		}
		if penalty == 0 {
			return base
		}
	}
}

// dijkstra finds a minimum-cost path under weight(e) = 1 + penalty·load[e].
func dijkstra(g *graph.Graph, src, dst graph.NodeID, load []int, penalty int) graph.Path {
	const inf = int64(1) << 62
	dist := make([]int64, g.NumNodes())
	parent := make([]graph.EdgeID, g.NumNodes())
	for i := range dist {
		dist[i] = inf
		parent[i] = graph.None
	}
	dist[src] = 0
	pq := &nodeHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nodeItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, eid := range g.Out(it.node) {
			e := g.Edge(eid)
			w := int64(1 + penalty*load[eid])
			nd := it.dist + w
			if nd < dist[e.Head] {
				dist[e.Head] = nd
				parent[e.Head] = eid
				heap.Push(pq, nodeItem{node: e.Head, dist: nd})
			}
		}
	}
	if dist[dst] == inf {
		return nil
	}
	var rev graph.Path
	for cur := dst; cur != src; {
		eid := parent[cur]
		rev = append(rev, eid)
		cur = g.Edge(eid).Tail
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

type nodeItem struct {
	node graph.NodeID
	dist int64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
