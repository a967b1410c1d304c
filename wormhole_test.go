package wormhole_test

import (
	"testing"

	"wormhole"
)

// These tests exercise the public facade exactly as a downstream user
// would, so the README snippets stay honest.

func TestQuickstartFlow(t *testing.T) {
	prob := wormhole.ButterflyQRelation(64, 4, 16, 42)
	if prob.C < 4 || prob.D != 6 || prob.L != 16 {
		t.Fatalf("unexpected problem parameters: C=%d D=%d L=%d", prob.C, prob.D, prob.L)
	}
	res := prob.RouteGreedy(wormhole.GreedyOptions{B: 4})
	if !res.AllDelivered() {
		t.Fatal("greedy routing failed")
	}
	sched, ver, err := prob.RouteScheduled(wormhole.ScheduleOptions{B: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if ver.TotalStalls != 0 {
		t.Error("scheduled run must be stall-free")
	}
	if sched.NumClasses < 1 {
		t.Error("schedule has no classes")
	}
}

func TestManualNetworkFlow(t *testing.T) {
	// Build a custom network through the facade alone.
	g := wormhole.NewGraph(4, 6)
	n0 := g.AddNode("a")
	n1 := g.AddNode("b")
	n2 := g.AddNode("c")
	n3 := g.AddNode("d")
	g.AddEdge(n0, n1)
	g.AddEdge(n1, n2)
	g.AddEdge(n2, n3)
	p, ok := wormhole.ShortestPath(g, n0, n3)
	if !ok || len(p) != 3 {
		t.Fatal("shortest path")
	}
	set := wormhole.NewMessageSet(g)
	set.Add(n0, n3, 8, p)
	if wormhole.Congestion(set) != 1 || wormhole.Dilation(set) != 3 {
		t.Error("analysis accessors")
	}
	if !wormhole.DeadlockFree(set) {
		t.Error("a single path is trivially deadlock-free")
	}
	res := wormhole.Simulate(set, nil, wormhole.SimConfig{VirtualChannels: 1})
	if res.Steps != 3+8-1 {
		t.Errorf("latency = %d, want D+L-1", res.Steps)
	}
}

func TestOpenLoopFacade(t *testing.T) {
	cfg := wormhole.OpenLoopConfig{
		Net:             wormhole.NewButterflyTraffic(16),
		VirtualChannels: 4,
		MessageLength:   4,
		Arbitration:     wormhole.ArbAge,
		Process:         wormhole.ProcessPoisson,
		Rate:            0.05,
		Pattern:         wormhole.PatternUniform,
		Warmup:          32,
		Measure:         128,
		Drain:           512,
		Seed:            3,
	}
	res, err := wormhole.RunOpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 || res.Saturated {
		t.Fatalf("low-rate open-loop run: %+v", res)
	}
	if res.MeanLatency < float64(4+4-1) {
		t.Errorf("mean latency %g below the physical floor", res.MeanLatency)
	}
	cfg.MaxBacklog = 1024
	sat, err := wormhole.SaturationRate(cfg, wormhole.SaturationOptions{Hi: 1, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sat.Rate <= 0 || len(sat.Probes) == 0 {
		t.Fatalf("saturation search: %+v", sat)
	}
}

func TestIncrementalSimFacade(t *testing.T) {
	g := wormhole.NewGraph(3, 2)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	sim, err := wormhole.NewSim(g, wormhole.SimConfig{VirtualChannels: 1, MaxSteps: 64})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := wormhole.ShortestPath(g, a, c)
	if _, err := sim.Inject(wormhole.Message{Src: a, Dst: c, Length: 2, Path: p}, 0); err != nil {
		t.Fatal(err)
	}
	for sim.Active() > 0 {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if res := sim.Result(); res.Steps != 2+2-1 || !res.AllDelivered() {
		t.Fatalf("incremental run: %+v", res)
	}
}

func TestTopologyConstructors(t *testing.T) {
	if wormhole.NewButterfly(16).Levels != 4 {
		t.Error("butterfly levels")
	}
	if wormhole.NewTwoPassButterfly(8).Levels != 3 {
		t.Error("two-pass levels")
	}
	if wormhole.NewMesh(3, 3).G.NumNodes() != 9 {
		t.Error("mesh nodes")
	}
	if wormhole.NewTorus(4).G.NumNodes() != 4 {
		t.Error("torus nodes")
	}
	if wormhole.NewHypercube(8).Dim != 3 {
		t.Error("hypercube dim")
	}
	if wormhole.Log2(1000) != 10 {
		t.Error("Log2")
	}
}

func TestAdversaryFacade(t *testing.T) {
	adv := wormhole.BuildAdversary(wormhole.AdversaryParams{
		B: 1, TargetD: 12, TargetC: 4, L: 30,
	})
	if adv.ProgressBound() <= 0 {
		t.Fatal("progress bound")
	}
	res := wormhole.Simulate(adv.Set, nil, wormhole.SimConfig{VirtualChannels: 1})
	if !res.AllDelivered() {
		t.Fatal("adversary instance must route")
	}
	if float64(res.Steps) < adv.ProgressBound() {
		t.Error("measured time beat the impossible floor")
	}
}

func TestQRelationFacade(t *testing.T) {
	r := wormhole.NewRand(7)
	pairs := wormhole.RandomQRelation(64, 4, r)
	res := wormhole.RunQRelation(pairs, wormhole.QRelationParams{
		N: 64, Q: 4, L: 6, B: 2,
	}, r)
	if !res.AllDelivered {
		t.Fatal("q-relation routing failed")
	}
	if wormhole.QRelationBound(64, 4, 6, 2) <= 0 {
		t.Error("bound evaluator")
	}
}

func TestBaselineFacades(t *testing.T) {
	prob := wormhole.ButterflyQRelation(32, 2, 8, 3)
	saf := wormhole.RunStoreAndForward(prob.Set)
	if saf.Delivered != prob.Set.Len() {
		t.Error("SAF")
	}
	vct := wormhole.RunVirtualCutThrough(prob.Set, wormhole.VCTConfig{BufferFlits: 2})
	if vct.Delivered != prob.Set.Len() {
		t.Error("VCT")
	}
	r := wormhole.NewRand(2)
	cs := wormhole.RunCircuitSwitch(32, 2, wormhole.RandomQRelation(32, 1, r), r)
	if cs.Attempted != 32 {
		t.Error("circuit switch")
	}
}

func TestScheduleFacade(t *testing.T) {
	prob := wormhole.ButterflyQRelation(32, 4, 12, 9)
	sched, err := wormhole.BuildSchedule(prob.Set, wormhole.ScheduleBuildOptions{
		B: 2, ConstantScale: 0.05,
	}, wormhole.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wormhole.VerifySchedule(prob.Set, sched); err != nil {
		t.Fatal(err)
	}
	naive := wormhole.NaiveSchedule(prob.Set)
	if _, err := wormhole.VerifySchedule(prob.Set, naive); err != nil {
		t.Fatal(err)
	}
	// Bound evaluators are wired.
	if wormhole.UpperBound216(12, prob.C, prob.D, 2) <= 0 ||
		wormhole.LowerBound221(12, prob.C, prob.D, 2) <= 0 ||
		wormhole.NaiveBound(12, prob.C, prob.D) <= 0 ||
		wormhole.StoreAndForwardBound(12, prob.C, prob.D) <= 0 ||
		wormhole.PredictedSpeedup(prob.D, 2) <= 1 {
		t.Error("bound evaluators")
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(wormhole.Experiments()) != 23 {
		t.Errorf("%d experiments", len(wormhole.Experiments()))
	}
	tables, err := wormhole.RunExperiment("F1", wormhole.ExperimentConfig{Seed: 1, Quick: true})
	if err != nil || len(tables) == 0 {
		t.Fatalf("RunExperiment: %v", err)
	}
}
