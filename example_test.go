package wormhole_test

import (
	"fmt"

	"wormhole"
)

// The basic flow: build a workload on a butterfly, route it greedily,
// then build and verify the paper's Theorem 2.1.6 schedule.
func Example() {
	prob := wormhole.ButterflyQRelation(64, 4, 16, 7) // n, q, L, seed
	fmt.Printf("C=%d D=%d L=%d messages=%d\n", prob.C, prob.D, prob.L, prob.Set.Len())

	greedy := prob.RouteGreedy(wormhole.GreedyOptions{B: 2})
	fmt.Printf("greedy B=2: delivered=%v\n", greedy.AllDelivered())

	_, verified, err := prob.RouteScheduled(wormhole.ScheduleOptions{B: 2, Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("scheduled B=2: stalls=%d delivered=%v\n",
		verified.TotalStalls, verified.AllDelivered())
	// Output:
	// C=6 D=6 L=16 messages=256
	// greedy B=2: delivered=true
	// scheduled B=2: stalls=0 delivered=true
}

// A lone worm's latency is exactly D+L−1 flit steps — the wormhole
// pipelining identity from the paper's introduction.
func ExampleSimulate() {
	g := wormhole.NewGraph(5, 4)
	prev := g.AddNode("n0")
	for i := 1; i <= 4; i++ {
		next := g.AddNode(fmt.Sprintf("n%d", i))
		g.AddEdge(prev, next)
		prev = next
	}
	path, _ := wormhole.ShortestPath(g, 0, 4)
	set := wormhole.NewMessageSet(g)
	set.Add(0, 4, 7, path) // D = 4 edges, L = 7 flits

	res := wormhole.Simulate(set, nil, wormhole.SimConfig{VirtualChannels: 1})
	fmt.Printf("latency = %d (D+L-1 = %d)\n", res.Steps, 4+7-1)
	// Output:
	// latency = 10 (D+L-1 = 10)
}

// The Theorem 2.2.1 adversarial instance: every pair of messages shares
// an edge, so no router can beat the (L−D)·M/B progress floor.
func ExampleBuildAdversary() {
	adv := wormhole.BuildAdversary(wormhole.AdversaryParams{
		B: 1, TargetD: 12, TargetC: 4, L: 30,
	})
	res := wormhole.Simulate(adv.Set, nil, wormhole.SimConfig{
		VirtualChannels: 1,
		Arbitration:     wormhole.ArbAge,
	})
	fmt.Printf("messages=%d floor=%.0f beaten=%v\n",
		adv.Set.Len(), adv.ProgressBound(),
		float64(res.Steps) < adv.ProgressBound())
	// Output:
	// messages=14 floor=252 beaten=false
}

// Waksman's looping algorithm routes any permutation through a Beneš
// network on edge-disjoint paths: wormhole routing then takes exactly
// L + depth − 1 flit steps with zero stalls.
func ExampleNewBenes() {
	bn := wormhole.NewBenes(8)
	perm := []int{3, 7, 0, 4, 1, 6, 2, 5}
	paths := bn.RoutePermutation(perm)

	set := wormhole.NewMessageSet(bn.G)
	for a, p := range paths {
		set.Add(bn.Inputs[a], bn.Outputs[perm[a]], 10, p)
	}
	res := wormhole.Simulate(set, nil, wormhole.SimConfig{VirtualChannels: 1})
	fmt.Printf("steps=%d optimal=%d stalls=%d\n", res.Steps, 10+bn.Depth-1, res.TotalStalls)
	// Output:
	// steps=15 optimal=15 stalls=0
}

// Congestion-aware path selection spreads a hotspot across parallel
// routes before the scheduler ever sees it.
func ExampleRouteMinMax() {
	// Two parallel 2-hop lanes from s to t.
	g := wormhole.NewGraph(4, 4)
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	t := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(a, t)
	g.AddEdge(s, b)
	g.AddEdge(b, t)

	pairs := []wormhole.Endpoints{{Src: s, Dst: t}, {Src: s, Dst: t}}
	set := wormhole.RouteMinMax(g, pairs, 4)
	fmt.Printf("congestion=%d\n", wormhole.Congestion(set))
	// Output:
	// congestion=1
}
