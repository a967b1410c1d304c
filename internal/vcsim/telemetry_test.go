package vcsim

import (
	"testing"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
)

// The flight-recorder contract — attaching Metrics and a Trace leaves the
// schedule byte-identical — is checkSim's (fuzz_test.go): its incremental
// Sims carry telemetry and are compared against the bare batch run on every
// row of TestSimEquivalences.

// TestTelemetryCountersMatchResult cross-checks the counters against the
// ground truth the engine already reports: delivers, steps and stall
// totals in the snapshot must agree with the Result.
func TestTelemetryCountersMatchResult(t *testing.T) {
	bf := topology.NewButterfly(8)
	set := message.NewSet(bf.G)
	r := rng.New(7)
	for i := 0; i < 40; i++ {
		src, dst := r.Intn(8), r.Intn(8)
		set.Add(bf.Input(src), bf.Output(dst), 1+r.Intn(6), bf.Route(src, dst))
	}
	m := telemetry.NewMetrics()
	res := Run(set, nil, Config{VirtualChannels: 2, Metrics: m})
	if !res.AllDelivered() {
		t.Fatalf("workload did not drain: %+v", res)
	}
	s := m.Snapshot()
	if got := s.Counter("delivers"); got != int64(res.Delivered) {
		t.Errorf("delivers counter = %d, Result.Delivered = %d", got, res.Delivered)
	}
	if got := s.Counter("injects"); got != int64(set.Len()) {
		t.Errorf("injects counter = %d, want %d", got, set.Len())
	}
	if got := s.Counter("steps"); got != int64(res.Steps) {
		t.Errorf("steps counter = %d, Result.Steps = %d", got, res.Steps)
	}
	var perEdge int64
	for _, v := range s.EdgeStalls {
		perEdge += v
	}
	scalar := s.Counter("stall_lane_credit") + s.Counter("stall_shared_pool") +
		s.Counter("stall_bandwidth") + s.Counter("stall_head_of_line")
	if perEdge != scalar {
		t.Errorf("per-edge stall total %d != scalar stall total %d", perEdge, scalar)
	}
	if perEdge != int64(res.TotalStalls) {
		t.Errorf("stall total %d != Result.TotalStalls %d", perEdge, res.TotalStalls)
	}
}

// TestTelemetryStepZeroAllocSteadyState extends the steady-state
// allocation gates to instrumented runs: counters and a warm ring trace
// must keep the hot loop allocation-free on both engines.
func TestTelemetryStepZeroAllocSteadyState(t *testing.T) {
	for _, arch := range deepGrid {
		g := topology.NewLinearArray(7)
		route := message.ShortestPathRouter(g)
		sim, err := NewSim(g, Config{
			VirtualChannels: 2,
			LaneDepth:       arch.depth,
			SharedPool:      arch.shared,
			Arbitration:     ArbAge,
			MaxSteps:        1 << 30,
			Metrics:         telemetry.NewMetrics(),
			Trace:           telemetry.NewTrace(512),
		})
		if err != nil {
			t.Fatal(err)
		}
		msg := message.Message{Src: 0, Dst: graph.NodeID(6), Length: 5, Path: route(0, graph.NodeID(6))}
		for i := 0; i < 600; i++ {
			if _, err := sim.Inject(msg, 0); err != nil {
				t.Fatal(err)
			}
		}
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
			t.Fatalf("d=%d shared=%v: instrumented steady-state Step allocates %.2f times per step, want 0",
				arch.depth, arch.shared, allocs)
		}
	}
}

// TestTelemetryTraceCoversRun sanity-checks the event stream on a small
// drained run: every message contributes an inject and a deliver, and
// event times never decrease.
func TestTelemetryTraceCoversRun(t *testing.T) {
	bf := topology.NewButterfly(8)
	set := message.NewSet(bf.G)
	r := rng.New(3)
	for i := 0; i < 12; i++ {
		src, dst := r.Intn(8), r.Intn(8)
		set.Add(bf.Input(src), bf.Output(dst), 1+r.Intn(4), bf.Route(src, dst))
	}
	tr := telemetry.NewTrace(1 << 14)
	res := Run(set, nil, Config{VirtualChannels: 2, Trace: tr})
	if !res.AllDelivered() {
		t.Fatalf("workload did not drain: %+v", res)
	}
	injects, delivers, last := 0, 0, int32(0)
	for _, ev := range tr.Events() {
		if ev.Time < last {
			t.Fatalf("trace time went backwards: %+v after t=%d", ev, last)
		}
		last = ev.Time
		switch ev.Kind {
		case telemetry.EvInject:
			injects++
		case telemetry.EvDeliver:
			delivers++
		}
	}
	if injects != set.Len() || delivers != set.Len() {
		t.Errorf("trace saw %d injects / %d delivers, want %d of each", injects, delivers, set.Len())
	}
	if tr.Dropped() != 0 {
		t.Errorf("ring dropped %d events despite generous capacity", tr.Dropped())
	}
}
