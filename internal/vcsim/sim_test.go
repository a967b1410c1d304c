package vcsim

// Tests for the incremental Sim lifecycle. Its central property, the
// batch/incremental equivalence — the same release list injected up front
// and stepped by hand reproduces the batch Run's Result exactly, under
// every policy — is what lets the open-loop traffic engine reuse every
// correctness guarantee the batch engine's differential tests establish;
// checkSim (fuzz_test.go) asserts it on every row of TestSimEquivalences.

import (
	"errors"
	"testing"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
)

// TestIncrementalLateInjection checks that messages injected mid-run (not
// up front) behave identically to a batch run with the same release list:
// the engine must not care when it learns about a future release.
func TestIncrementalLateInjection(t *testing.T) {
	bf := topology.NewButterfly(8)
	r := rng.New(7)
	set := message.NewSet(bf.G)
	var releases []int
	for i := 0; i < 20; i++ {
		src, dst := r.Intn(8), r.Intn(8)
		set.Add(bf.Input(src), bf.Output(dst), 3, bf.Route(src, dst))
		releases = append(releases, r.Intn(25))
	}
	cfg := Config{VirtualChannels: 2, Arbitration: ArbAge, MaxSteps: 4096, CheckInvariants: true}
	batch := Run(set, releases, cfg)

	sim, err := NewSim(bf.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Inject each message in the step its release arrives, in ID order
	// within a step — the order the batch engine admits them.
	for sim.Active() > 0 || sim.Injected() < set.Len() {
		for i := 0; i < set.Len(); i++ {
			if releases[i] == sim.Now() {
				if _, err := sim.Inject(set.Get(message.ID(i)), releases[i]); err != nil {
					t.Fatalf("Inject %d at %d: %v", i, sim.Now(), err)
				}
			}
		}
		if err := sim.Step(); err != nil {
			t.Fatalf("Step at %d: %v", sim.Now(), err)
		}
	}
	inc := sim.Result()
	// Late injection renumbers nothing here (IDs assigned in release
	// order differ from batch IDs), so compare order-insensitive
	// aggregates plus the delivery-time multiset.
	if batch.Steps != inc.Steps || batch.Delivered != inc.Delivered || batch.TotalStalls != inc.TotalStalls {
		t.Fatalf("aggregates differ: batch{%d %d %d} inc{%d %d %d}",
			batch.Steps, batch.Delivered, batch.TotalStalls, inc.Steps, inc.Delivered, inc.TotalStalls)
	}
	count := map[[2]int]int{}
	for _, st := range batch.PerMessage {
		count[[2]int{st.Release, st.DeliverTime}]++
	}
	for _, st := range inc.PerMessage {
		count[[2]int{st.Release, st.DeliverTime}]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("delivery multiset differs at (release=%d, deliver=%d): %+d", k[0], k[1], v)
		}
	}
}

func TestNewSimRequiresHorizon(t *testing.T) {
	bf := topology.NewButterfly(4)
	if _, err := NewSim(bf.G, Config{VirtualChannels: 1}); !errors.Is(err, ErrNoHorizon) {
		t.Fatalf("MaxSteps=0: got %v, want ErrNoHorizon", err)
	}
	if _, err := NewSim(bf.G, Config{VirtualChannels: 0, MaxSteps: 10}); err == nil {
		t.Fatal("VirtualChannels=0: expected an error")
	}
	if _, err := NewSim(bf.G, Config{VirtualChannels: 1, MaxSteps: 10}); err != nil {
		t.Fatalf("valid config: %v", err)
	}
}

func TestStepHorizonError(t *testing.T) {
	bf := topology.NewButterfly(4)
	sim, err := NewSim(bf.G, Config{VirtualChannels: 1, MaxSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sim.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := sim.Step(); !errors.Is(err, ErrHorizon) {
		t.Fatalf("step at horizon: got %v, want ErrHorizon", err)
	}
	if !sim.Truncated() || !sim.Result().Truncated {
		t.Fatal("horizon overrun must mark the result Truncated")
	}
}

func TestStepDeadlockError(t *testing.T) {
	set := deadlockSet()
	sim, err := NewSim(set.G, Config{VirtualChannels: 1, MaxSteps: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < set.Len(); i++ {
		if _, err := sim.Inject(set.Get(message.ID(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	var sawDeadlock bool
	for i := 0; i < 1024; i++ {
		if err := sim.Step(); err != nil {
			if !errors.Is(err, ErrDeadlocked) {
				t.Fatalf("got %v, want ErrDeadlocked", err)
			}
			sawDeadlock = true
			break
		}
	}
	if !sawDeadlock {
		t.Fatal("deadlock never surfaced through Step")
	}
	if err := sim.Step(); !errors.Is(err, ErrDeadlocked) {
		t.Fatalf("post-deadlock step: got %v, want sticky ErrDeadlocked", err)
	}
	if !sim.Deadlocked() {
		t.Fatal("Deadlocked() must report true")
	}
	// The frozen worms never complete: Active must keep counting them
	// rather than reporting an empty network.
	if got := sim.Active(); got != set.Len() {
		t.Fatalf("Active() after deadlock = %d, want %d frozen worms", got, set.Len())
	}
}

// TestDrainHonorsHorizon: Drain's idle fast-forward must truncate at the
// MaxSteps horizon rather than jumping past it and executing steps there
// (the bound Step() enforces must bind Drain too).
func TestDrainHonorsHorizon(t *testing.T) {
	bf := topology.NewButterfly(4)
	sim, err := NewSim(bf.G, Config{VirtualChannels: 1, MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	msg := message.Message{Src: bf.Input(0), Dst: bf.Output(3), Length: 2, Path: bf.Route(0, 3)}
	if _, err := sim.Inject(msg, 1_000_000); err != nil {
		t.Fatal(err)
	}
	sim.Drain()
	res := sim.Result()
	if !res.Truncated {
		t.Fatal("release beyond the horizon must truncate")
	}
	if res.Steps > 100 || sim.Now() > 100 {
		t.Fatalf("Drain ran to step %d (result %d), past MaxSteps=100", sim.Now(), res.Steps)
	}
	if res.Delivered != 0 {
		t.Fatal("nothing can deliver past the horizon")
	}
}

func TestInjectValidation(t *testing.T) {
	bf := topology.NewButterfly(4)
	sim, err := NewSim(bf.G, Config{VirtualChannels: 1, MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	msg := message.Message{Src: bf.Input(0), Dst: bf.Output(3), Length: 2, Path: bf.Route(0, 3)}
	for i := 0; i < 5; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.Inject(msg, 3); err == nil {
		t.Fatal("release in the past must be rejected")
	}
	if _, err := sim.Inject(message.Message{Length: 0}, 5); err == nil {
		t.Fatal("zero-length message must be rejected")
	}
	bad := msg
	bad.Path = graph.Path{graph.EdgeID(bf.G.NumEdges() + 3)}
	if _, err := sim.Inject(bad, 5); err == nil {
		t.Fatal("out-of-range path edge must be rejected")
	}
	if _, err := sim.Inject(msg, 5); err != nil {
		t.Fatalf("valid inject: %v", err)
	}
}

func TestIdleStepsAdvanceTime(t *testing.T) {
	bf := topology.NewButterfly(4)
	sim, err := NewSim(bf.G, Config{VirtualChannels: 1, MaxSteps: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if sim.Now() != 10 {
		t.Fatalf("Now() = %d after 10 idle steps, want 10", sim.Now())
	}
	if sim.Active() != 0 || sim.Deadlocked() {
		t.Fatal("idle stepping must not fabricate work or deadlocks")
	}
}

// TestOnCompleteCallback checks the completion stream: exactly one call
// per message, with final stats, in both batch and incremental modes,
// for deliveries and drops alike.
func TestOnCompleteCallback(t *testing.T) {
	bf := topology.NewButterfly(8)
	r := rng.New(3)
	set := message.NewSet(bf.G)
	for i := 0; i < 24; i++ {
		src, dst := r.Intn(8), r.Intn(8)
		set.Add(bf.Input(src), bf.Output(dst), 4, bf.Route(src, dst))
	}
	for _, drop := range []bool{false, true} {
		got := map[message.ID]MessageStats{}
		calls := 0
		cfg := Config{
			VirtualChannels: 1,
			DropOnDelay:     drop,
			OnComplete: func(id message.ID, st MessageStats) {
				calls++
				if _, dup := got[id]; dup {
					t.Fatalf("drop=%v: message %d completed twice", drop, id)
				}
				got[id] = st
			},
		}
		res := Run(set, nil, cfg)
		if calls != set.Len() {
			t.Fatalf("drop=%v: %d completions for %d messages", drop, calls, set.Len())
		}
		for i := range res.PerMessage {
			if got[message.ID(i)] != res.PerMessage[i] {
				t.Fatalf("drop=%v: message %d callback stats %+v != result stats %+v",
					drop, i, got[message.ID(i)], res.PerMessage[i])
			}
		}
	}
}
