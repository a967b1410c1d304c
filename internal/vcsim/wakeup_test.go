package vcsim

// The blocked-worm wakeup engine is pinned to the retained naive scan
// (Config.NaiveScan) by checkSim (fuzz_test.go) on every row of
// TestSimEquivalences; this file keeps its allocation gate and the
// decline-scenario fixture those rows reuse.

import (
	"testing"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/topology"
)

// TestStepZeroAllocSteadyState asserts the wakeup hot loop is
// allocation-free once warm: stepping a contended network (movers, parked
// worms, wakes, re-parks) must not allocate at all.
func TestStepZeroAllocSteadyState(t *testing.T) {
	g := topology.NewLinearArray(7)
	route := message.ShortestPathRouter(g)
	sim, err := NewSim(g, Config{VirtualChannels: 2, Arbitration: ArbAge, MaxSteps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	msg := message.Message{Src: 0, Dst: graph.NodeID(6), Length: 5, Path: route(0, graph.NodeID(6))}
	for i := 0; i < 600; i++ {
		if _, err := sim.Inject(msg, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scratch buffers and wait-queue capacity.
	for i := 0; i < 200; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(400, func() {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.2f times per step, want 0", allocs)
	}
}

// restrictedBodyBlockSet is the directed regression workload for the
// restricted-model wake rule. Construction (B=2, cap=1, ArbByID): worms
// O1/O2 fill edge E's buffer and sit blocked at F behind the long worm Z;
// waiters W1 < W2 park on E after probation. When Z drains, O1 advances and
// releases one slot of E. A free-slot-count wake would rouse only W1 — but
// W1's advance also crosses its body edge p→u, where the long worm X
// (earlier in ID order) is streaming flits, so W1 fails on *bandwidth* and
// grants nothing, while the naive scan advances W2 through the still-free
// slot. The wakeup engine must therefore wake the whole queue when cap < B;
// across the (LaneDepth, SharedPool) grid a woken worm declines its credit
// the same way.
func restrictedBodyBlockSet() (*message.Set, []int) {
	g := graph.New(0, 0)
	u := g.AddNode("u")
	v := g.AddNode("v")
	w := g.AddNode("w")
	p := g.AddNode("p")
	q := g.AddNode("q")
	zs := g.AddNode("zs")
	zt := g.AddNode("zt")
	o1s := g.AddNode("o1s")
	o1t := g.AddNode("o1t")
	o2s := g.AddNode("o2s")
	o2t := g.AddNode("o2t")
	xs := g.AddNode("xs")
	xt := g.AddNode("xt")
	w1s := g.AddNode("w1s")
	w1t := g.AddNode("w1t")
	w2s := g.AddNode("w2s")
	w2t := g.AddNode("w2t")

	e := g.AddEdge(u, v)      // the contended edge E
	f := g.AddEdge(v, w)      // downstream edge F
	ePU := g.AddEdge(p, u)    // W1's body edge, shared with X
	eQU := g.AddEdge(q, u)    // W2's private body edge
	eZin := g.AddEdge(zs, v)  // Z's approach
	eZout := g.AddEdge(w, zt) // Z's exit
	eO1in := g.AddEdge(o1s, u)
	eO1out := g.AddEdge(w, o1t)
	eO2in := g.AddEdge(o2s, u)
	eO2out := g.AddEdge(w, o2t)
	eXin := g.AddEdge(xs, p)
	eXout := g.AddEdge(u, xt)
	eW1in := g.AddEdge(w1s, p)
	eW1out := g.AddEdge(v, w1t)
	eW2in := g.AddEdge(w2s, q)
	eW2out := g.AddEdge(v, w2t)

	set := message.NewSet(g)
	set.Add(zs, zt, 30, graph.Path{eZin, f, eZout})         // Z  (id 0)
	set.Add(o1s, o1t, 2, graph.Path{eO1in, e, f, eO1out})   // O1 (id 1)
	set.Add(o2s, o2t, 2, graph.Path{eO2in, e, f, eO2out})   // O2 (id 2)
	set.Add(xs, xt, 25, graph.Path{eXin, ePU, eXout})       // X  (id 3)
	set.Add(w1s, w1t, 3, graph.Path{eW1in, ePU, e, eW1out}) // W1 (id 4)
	set.Add(w2s, w2t, 3, graph.Path{eW2in, eQU, e, eW2out}) // W2 (id 5)
	return set, []int{0, 0, 0, 20, 0, 0}
}
