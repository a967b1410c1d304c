package vcsim

// Tests for the buffer-architecture layer (deep.go): directed semantic
// checks of the multi-flit-lane and shared-pool models. The gating
// guarantee that LaneDepth=1 static is the untouched rigid engine, and the
// NaiveScan-vs-wakeup differential across the whole (LaneDepth, SharedPool)
// grid, are checkSim's (fuzz_test.go) on the rows of TestSimEquivalences.

import (
	"testing"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/topology"
)

// arch is a buffer architecture: lane depth d and whether an edge pools
// its B·d flit credits.
type arch struct {
	depth  int
	shared bool
}

// deepGrid is the buffer-architecture sweep the tests cover; the first
// entry is the rigid gate.
var deepGrid = []arch{
	{1, false},
	{1, true},
	{2, false},
	{2, true},
	{4, false},
	{4, true},
}

// TestDeepSingleMessageLatency checks that buffer depth is invisible to
// an unobstructed worm: with nothing to compress against, every flit
// advances every step and latency stays D+L-1 under every architecture.
func TestDeepSingleMessageLatency(t *testing.T) {
	for _, arch := range deepGrid {
		for _, tc := range []struct{ d, l int }{{1, 1}, {1, 5}, {4, 4}, {5, 9}, {9, 3}} {
			set := lineSet(t, 1, tc.d, tc.l)
			res := Run(set, nil, Config{
				VirtualChannels: 2,
				LaneDepth:       arch.depth,
				SharedPool:      arch.shared,
				CheckInvariants: true,
			})
			want := tc.d + tc.l - 1
			if res.Steps != want || !res.AllDelivered() {
				t.Errorf("d=%d shared=%v D=%d L=%d: steps=%d delivered=%v, want %d steps",
					arch.depth, arch.shared, tc.d, tc.l, res.Steps, res.AllDelivered(), want)
			}
			if st := res.PerMessage[0]; st.Stalls != 0 {
				t.Errorf("d=%d shared=%v: lone worm stalled %d times", arch.depth, arch.shared, st.Stalls)
			}
		}
	}
}

// blockedLineSet builds the compression fixture: worm W spans a 5-edge
// line; blocker Z is a long worm whose single-edge path is W's final
// edge, so Z's flits monopolize that edge's bandwidth (B=1) while W's
// header waits — exactly the situation lane depth exists for. Z gets the
// lower message ID so it wins the contested edge under ArbByID; W's
// trailing flits should then pile into the deep lane behind the header.
func blockedLineSet(zLen int) *message.Set {
	g := topology.NewLinearArray(6)
	set := message.NewSet(g)
	route := message.ShortestPathRouter(g)
	set.Add(4, 5, zLen, graph.Path{route(0, 5)[4]}) // Z (id 0): e4 only
	set.Add(0, 5, 6, route(0, 5))                   // W (id 1): edges e0..e4
	return set
}

// TestDeepCompression drives the fixture above and asserts the deep
// model's defining behaviors: (a) MaxOccupied reaches the lane depth in
// static mode — the blocked worm genuinely compresses — while the rigid
// model never exceeds one flit per edge per worm; (b) a shared pool lets
// one worm absorb more than d flits on one edge; (c) makespan is
// monotone non-increasing in lane depth (compression only helps).
func TestDeepCompression(t *testing.T) {
	run := func(depth int, shared bool) Result {
		return Run(blockedLineSet(12), nil, Config{
			VirtualChannels: 1,
			LaneDepth:       depth,
			SharedPool:      shared,
			CheckInvariants: true,
		})
	}
	rigid := run(1, false)
	if rigid.MaxOccupied != 1 {
		t.Fatalf("rigid MaxOccupied = %d, want 1", rigid.MaxOccupied)
	}
	prev := rigid.Steps
	for _, depth := range []int{2, 3, 4} {
		res := run(depth, false)
		if !res.AllDelivered() {
			t.Fatalf("d=%d: not all delivered: %+v", depth, res)
		}
		if res.MaxOccupied != depth {
			t.Errorf("d=%d static: MaxOccupied = %d, want %d (compression should fill the lane)",
				depth, res.MaxOccupied, depth)
		}
		if res.Steps > prev {
			t.Errorf("d=%d static: makespan %d regressed over shallower %d", depth, res.Steps, prev)
		}
		prev = res.Steps
	}
	// Shared pool, B=2, d=2: pool is 4 flits; the single blocked worm W
	// can absorb more than d=2 of them on one edge.
	shared := Run(blockedLineSet(12), nil, Config{
		VirtualChannels:     2,
		LaneDepth:           2,
		SharedPool:          true,
		RestrictedBandwidth: true, // keep e4's bandwidth at 1 so Z still blocks W
		CheckInvariants:     true,
	})
	if !shared.AllDelivered() {
		t.Fatalf("shared: not all delivered: %+v", shared)
	}
	if shared.MaxOccupied <= 2 {
		t.Errorf("shared B=2 d=2: MaxOccupied = %d, want > d=2 (one lane absorbing the pool)", shared.MaxOccupied)
	}
	if shared.MaxOccupied > 4 {
		t.Errorf("shared B=2 d=2: MaxOccupied = %d exceeds the B·d=4 pool", shared.MaxOccupied)
	}
}

// TestDeepConfigValidation pins the constructor contracts for the new
// Config fields on both lifecycles: the incremental constructor returns
// an error, the batch wrapper panics.
func TestDeepConfigValidation(t *testing.T) {
	g := topology.NewLinearArray(3)
	for _, cfg := range []Config{
		{VirtualChannels: 1, LaneDepth: -1, MaxSteps: 16},
	} {
		if _, err := NewSim(g, cfg); err == nil {
			t.Errorf("NewSim accepted %+v", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("batch Run accepted %+v", cfg)
				}
			}()
			Run(message.NewSet(g), nil, cfg)
		}()
	}
	if panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		panicf("boom %d", 7)
		return
	}(); !panicked {
		t.Error("panicf did not panic")
	}
}

// TestDeepInjectRecycles drives the incremental deep lifecycle through
// completion and re-injection: retired path and prog buffers must be
// recycled into later Injects, and the second generation must behave
// exactly like the first.
func TestDeepInjectRecycles(t *testing.T) {
	g := topology.NewLinearArray(5)
	route := message.ShortestPathRouter(g)
	sim, err := NewSim(g, Config{
		VirtualChannels: 1, LaneDepth: 2, SharedPool: true, MaxSteps: 1 << 20, CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := message.Message{Src: 0, Dst: graph.NodeID(4), Length: 3, Path: route(0, graph.NodeID(4))}
	deliver := func() {
		t.Helper()
		for sim.Active() > 0 {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := sim.Inject(msg, sim.Now()); err != nil {
		t.Fatal(err)
	}
	deliver()
	first := sim.Result().PerMessage[0]
	// The second inject draws from the freelists the first delivery fed.
	if _, err := sim.Inject(msg, sim.Now()); err != nil {
		t.Fatal(err)
	}
	deliver()
	second := sim.Result().PerMessage[1]
	if sim.Delivered() != 2 || sim.Dropped() != 0 {
		t.Fatalf("delivered %d dropped %d, want 2/0", sim.Delivered(), sim.Dropped())
	}
	if got, want := second.Latency(), first.Latency(); got != want {
		t.Errorf("recycled-buffer worm latency %d differs from fresh worm %d", got, want)
	}
}

// TestDeepStepZeroAllocSteadyState is the deep-engine analogue of
// TestStepZeroAllocSteadyState: stepping a contended deep-buffer network
// (compression, parked worms, credit wakes, re-parks) must not allocate
// once the scratch buffers are warm.
func TestDeepStepZeroAllocSteadyState(t *testing.T) {
	for _, arch := range deepGrid[1:] {
		g := topology.NewLinearArray(7)
		route := message.ShortestPathRouter(g)
		sim, err := NewSim(g, Config{
			VirtualChannels: 2,
			LaneDepth:       arch.depth,
			SharedPool:      arch.shared,
			Arbitration:     ArbAge,
			MaxSteps:        1 << 30,
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
			t.Fatalf("d=%d shared=%v: steady-state Step allocates %.2f times per step, want 0",
				arch.depth, arch.shared, allocs)
		}
	}
}
