package baseline

import (
	"testing"
	"testing/quick"

	"wormhole/internal/analysis"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
)

func TestLMRSingleMessage(t *testing.T) {
	set := lineSet(1, 5, 4)
	sched, err := BuildLMRSchedule(set, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan != 5 {
		t.Errorf("makespan %d, want D = 5", sched.Makespan)
	}
	if _, err := VerifyLMR(set, sched); err != nil {
		t.Fatal(err)
	}
}

func TestLMRDisjointMessagesZeroDelayPossible(t *testing.T) {
	// Permutation on the butterfly: moderate congestion; schedule length
	// must stay within window+D ≤ O(C+D).
	bf := topology.NewButterfly(32)
	r := rng.New(3)
	set := message.NewSet(bf.G)
	for src, dst := range r.Perm(32) {
		set.Add(bf.Input(src), bf.Output(dst), 4, bf.Route(src, dst))
	}
	sched, err := BuildLMRSchedule(set, r)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := VerifyLMR(set, sched); err != nil || got != sched.Makespan {
		t.Fatalf("verify: %v (makespan %d vs %d)", err, got, sched.Makespan)
	}
	c := analysis.Congestion(set)
	d := analysis.Dilation(set)
	if sched.Makespan > sched.Window+d {
		t.Errorf("makespan %d exceeds window+D = %d", sched.Makespan, sched.Window+d)
	}
	_ = c
}

func TestLMRHotspotNeedsWideWindow(t *testing.T) {
	// C messages over one path force delays to be a permutation-like
	// spread: window must grow to ≈ C and makespan to ≈ C+D.
	const k, d = 12, 5
	set := lineSet(k, d, 3)
	sched, err := BuildLMRSchedule(set, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan < k+d-1 {
		t.Errorf("makespan %d below the C+D-1 floor %d", sched.Makespan, k+d-1)
	}
	if sched.Makespan > 8*(k+d) {
		t.Errorf("makespan %d far above O(C+D)", sched.Makespan)
	}
	if _, err := VerifyLMR(set, sched); err != nil {
		t.Fatal(err)
	}
}

func TestLMRMakespanNearCPlusD(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		bf := topology.NewButterfly(16)
		set := message.NewSet(bf.G)
		reps := 1 + int(seed%3)
		for rep := 0; rep < reps; rep++ {
			for src, dst := range r.Perm(16) {
				set.Add(bf.Input(src), bf.Output(dst), 3, bf.Route(src, dst))
			}
		}
		sched, err := BuildLMRSchedule(set, r)
		if err != nil {
			return false
		}
		if _, err := VerifyLMR(set, sched); err != nil {
			return false
		}
		c := analysis.Congestion(set)
		d := analysis.Dilation(set)
		// O(C+D) with a generous constant for rejection sampling.
		return sched.Makespan <= 16*(c+d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyLMRCatchesCollisions(t *testing.T) {
	set := lineSet(2, 3, 2)
	bad := &LMRSchedule{Delays: []int{0, 0}}
	if _, err := VerifyLMR(set, bad); err == nil {
		t.Fatal("identical zero delays on a shared path must collide")
	}
	if _, err := VerifyLMR(set, &LMRSchedule{Delays: []int{0}}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestLMRFlitSteps(t *testing.T) {
	if LMRFlitSteps(&LMRSchedule{Makespan: 7}, 4) != 28 {
		t.Fatal("flit conversion")
	}
}

func TestLMREmptySet(t *testing.T) {
	g := topology.NewLinearArray(2)
	set := message.NewSet(g)
	sched, err := BuildLMRSchedule(set, rng.New(1))
	if err != nil || sched.Makespan != 0 {
		t.Fatalf("empty set: %v %d", err, sched.Makespan)
	}
}
