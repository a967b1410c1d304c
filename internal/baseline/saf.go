// Package baseline implements the routing methods the paper compares
// wormhole-with-virtual-channels against: store-and-forward routing
// (Section 1's O(L(C+D))-flit-step contender), virtual cut-through routing
// with B-flit buffers (Section 1.4's linear-speedup contender), and Koch's
// circuit switching on the butterfly (the origin of the superlinear
// observation).
package baseline

import (
	"slices"

	"wormhole/internal/graph"
	"wormhole/internal/message"
)

// SAFResult reports a store-and-forward run. Time is counted in message
// steps (one message crosses one edge per step); FlitSteps = L·Steps per
// the paper's conversion.
type SAFResult struct {
	Steps     int
	FlitSteps int
	Delivered int
	MaxQueue  int // peak number of messages buffered at any node
}

// RunStoreAndForward simulates greedy FIFO store-and-forward routing: each
// message occupies a whole-node buffer, and in every message step each edge
// transmits the longest-waiting message queued at its tail that wants it
// (ties by message ID). Every message is injected at step 0 (delay
// smoothing is BuildLMRSchedule's job), so each step moves at least one
// message and the run is total. Buffers are unbounded; the observed peak
// occupancy is reported so experiments can compare buffer budgets against
// wormhole routers (the paper's point: SAF needs Ω(L)-flit buffers).
func RunStoreAndForward(s *message.Set) SAFResult {
	n := s.Len()

	type msgState struct {
		hop    int // edges already crossed
		ready  int // message step at which it arrived where it waits
		done   bool
		atNode graph.NodeID
		path   graph.Path
	}
	ms := make([]msgState, n)
	for i := 0; i < n; i++ {
		m := s.Get(message.ID(i))
		ms[i] = msgState{atNode: m.Src, path: m.Path}
	}

	// Node occupancy for MaxQueue accounting.
	queue := make([]int, s.G.NumNodes())
	for i := range ms {
		queue[ms[i].atNode]++
	}
	maxQueue := 0
	for _, q := range queue {
		if q > maxQueue {
			maxQueue = q
		}
	}

	remaining := 0
	for i := range ms {
		if len(ms[i].path) == 0 {
			ms[i].done = true
		} else {
			remaining++
		}
	}

	res := SAFResult{MaxQueue: maxQueue}
	type claim struct {
		wait int // ready time (earlier = longer waiting)
		id   int
	}
	var winners []graph.EdgeID
	for step := 0; remaining > 0; step++ {
		// Collect the best claimant per edge.
		claims := make(map[graph.EdgeID]claim)
		for i := range ms {
			st := &ms[i]
			if st.done {
				continue
			}
			e := st.path[st.hop]
			c, ok := claims[e]
			if !ok || st.ready < c.wait || (st.ready == c.wait && i < c.id) {
				claims[e] = claim{wait: st.ready, id: i}
			}
		}
		// Move the winners in edge order. Iterating the map directly made
		// MaxQueue depend on Go's randomized iteration order: the peak
		// samples transient queue depths, so whether an arrival at a node
		// was counted before or after a same-step departure from it could
		// differ run to run.
		winners := winners[:0]
		for e := range claims { //wormvet:allow determinism -- winners sorted immediately below
			winners = append(winners, e)
		}
		slices.Sort(winners)
		for _, e := range winners {
			c := claims[e]
			st := &ms[c.id]
			queue[st.atNode]--
			st.atNode = s.G.Edge(e).Head
			st.hop++
			st.ready = step + 1
			if st.hop == len(st.path) {
				st.done = true
				res.Delivered++
				remaining--
				if step+1 > res.Steps {
					res.Steps = step + 1
				}
			} else {
				queue[st.atNode]++
				if queue[st.atNode] > res.MaxQueue {
					res.MaxQueue = queue[st.atNode]
				}
			}
		}
	}
	for i := range ms {
		if len(ms[i].path) == 0 {
			res.Delivered++
		}
	}
	res.FlitSteps = res.Steps * s.MaxLength()
	return res
}

// SAFFlitBufferBudget returns the per-node flit-buffer requirement of the
// store-and-forward router on this workload: peak queue × L flits.
func SAFFlitBufferBudget(res SAFResult, l int) int { return res.MaxQueue * l }
