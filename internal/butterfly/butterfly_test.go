package butterfly

import (
	"testing"
	"testing/quick"

	"wormhole/internal/rng"
	"wormhole/internal/topology"
	"wormhole/internal/vcsim"
)

func TestLockstepNoContentionAllSurvive(t *testing.T) {
	// B ≥ claimants everywhere: everything survives.
	n := 8
	r := rng.New(1)
	routes := []TwoPassRoute{{Src: 0, Mid: 3, Dst: 5}, {Src: 1, Mid: 6, Dst: 2}}
	surv := RunLockstepSubround(n, 4, routes, ArbRandom, r)
	if len(surv) != 2 {
		t.Fatalf("survivors = %v", surv)
	}
}

func TestLockstepIdenticalRoutesContend(t *testing.T) {
	// k identical routes share every edge; exactly B survive.
	n := 8
	r := rng.New(2)
	routes := make([]TwoPassRoute, 5)
	for i := range routes {
		routes[i] = TwoPassRoute{Src: 3, Mid: 6, Dst: 1}
	}
	for b := 1; b <= 5; b++ {
		surv := RunLockstepSubround(n, b, routes, ArbRandom, r)
		want := b
		if want > 5 {
			want = 5
		}
		if len(surv) != want {
			t.Fatalf("B=%d: %d survivors, want %d", b, len(surv), want)
		}
	}
}

func TestLockstepArbFirstDeterministic(t *testing.T) {
	n := 8
	routes := make([]TwoPassRoute, 4)
	for i := range routes {
		routes[i] = TwoPassRoute{Src: 2, Mid: 5, Dst: 7}
	}
	surv := RunLockstepSubround(n, 2, routes, ArbFirst, nil)
	if len(surv) != 2 || surv[0] != 0 || surv[1] != 1 {
		t.Fatalf("ArbFirst survivors = %v, want [0 1]", surv)
	}
}

// TestLockstepMatchesVCSim is the cross-validation at the heart of the
// Section 3.1 reproduction: the bucket-per-stage lockstep shortcut must
// produce exactly the same survivor set as the full flit-level simulator
// in drop-on-delay mode under the same deterministic arbitration.
func TestLockstepMatchesVCSim(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 8 << (seed % 2) // 8 or 16
		k := topology.Log2(n)
		b := 1 + int(seed%3)
		l := 2 + int(seed%5)
		m := 2 + r.Intn(3*n)
		routes := make([]TwoPassRoute, m)
		for i := range routes {
			routes[i] = TwoPassRoute{Src: r.Intn(n), Mid: r.Intn(n), Dst: r.Intn(n)}
		}

		lockstep := RunLockstepSubround(n, b, routes, ArbFirst, nil)

		tp := topology.NewTwoPassButterfly(n)
		set := TwoPassPathEndpoints(tp, routes, l)
		res := vcsim.Run(set, nil, vcsim.Config{
			VirtualChannels: b,
			DropOnDelay:     true,
			Arbitration:     vcsim.ArbByID,
			CheckInvariants: true,
		})
		simSurv := res.DeliveredIDs()

		if len(simSurv) != len(lockstep) {
			t.Logf("seed %d: lockstep %d vs vcsim %d (n=%d b=%d m=%d)",
				seed, len(lockstep), len(simSurv), n, b, m)
			return false
		}
		for i := range lockstep {
			if int(simSurv[i]) != lockstep[i] {
				t.Logf("seed %d: survivor sets differ at %d", seed, i)
				return false
			}
		}
		// Survivors are never delayed: they arrive at exactly 2k+l−1.
		for _, id := range simSurv {
			if res.PerMessage[id].DeliverTime != 2*k+l-1 {
				t.Logf("seed %d: survivor %d arrived at %d, want %d",
					seed, id, res.PerMessage[id].DeliverTime, 2*k+l-1)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedSubroundsDoNotInteract validates the time accounting of
// Theorem 3.1.1: subrounds released L+1 flit steps apart behave exactly
// as if run in isolation, because drop-on-delay removes any delayed worm
// instantly and consecutive waves stay strictly more than one level
// apart. (The paper pipelines exactly L apart; the +1 compensates for the
// conservative next-step visibility of buffer releases in vcsim.)
func TestPipelinedSubroundsDoNotInteract(t *testing.T) {
	r := rng.New(33)
	n, b, l := 16, 2, 4
	tp := topology.NewTwoPassButterfly(n)
	const waves = 4
	var all []TwoPassRoute
	var isolated [][]int
	for w := 0; w < waves; w++ {
		routes := make([]TwoPassRoute, 3*n)
		for i := range routes {
			routes[i] = TwoPassRoute{Src: r.Intn(n), Mid: r.Intn(n), Dst: r.Intn(n)}
		}
		all = append(all, routes...)
		isolated = append(isolated, RunLockstepSubround(n, b, routes, ArbFirst, nil))
	}
	set := TwoPassPathEndpoints(tp, all, l)
	releases := make([]int, set.Len())
	for i := range releases {
		releases[i] = (i / (3 * n)) * (l + 1)
	}
	res := vcsim.Run(set, releases, vcsim.Config{
		VirtualChannels: b,
		DropOnDelay:     true,
		Arbitration:     vcsim.ArbByID,
		CheckInvariants: true,
	})
	// Compare the pipelined run's per-wave survivors with isolation.
	for w := 0; w < waves; w++ {
		var got []int
		for i := 0; i < 3*n; i++ {
			id := w*3*n + i
			if res.PerMessage[id].Status == vcsim.StatusDelivered {
				got = append(got, i)
			}
		}
		if len(got) != len(isolated[w]) {
			t.Fatalf("wave %d: pipelined %d survivors vs isolated %d", w, len(got), len(isolated[w]))
		}
		for i := range got {
			if got[i] != isolated[w][i] {
				t.Fatalf("wave %d survivor mismatch", w)
			}
		}
	}
}

func TestRunQRelationDeliversEverything(t *testing.T) {
	for _, tc := range []struct{ n, q, b int }{
		{64, 1, 1}, {64, 6, 1}, {64, 6, 2}, {128, 7, 3},
	} {
		r := rng.New(uint64(tc.n*tc.q*tc.b) + 7)
		pairs := RandomQRelation(tc.n, tc.q, r)
		res := RunQRelation(pairs, Params{
			N: tc.n, Q: tc.q, L: topology.Log2(tc.n), B: tc.b,
		}, r)
		if !res.AllDelivered {
			t.Errorf("n=%d q=%d B=%d: %d/%d delivered after %d rounds",
				tc.n, tc.q, tc.b, res.DeliveredMsgs, res.TotalMessages, len(res.Rounds))
		}
		if res.FlitSteps <= 0 {
			t.Errorf("n=%d q=%d B=%d: nonpositive flit steps", tc.n, tc.q, tc.b)
		}
	}
}

func TestRunQRelationRoundAccounting(t *testing.T) {
	n, q, b := 64, 6, 2
	r := rng.New(11)
	pairs := RandomQRelation(n, q, r)
	res := RunQRelation(pairs, Params{N: n, Q: q, L: 6, B: b}, r)
	k := topology.Log2(n)
	sum := 0
	for _, round := range res.Rounds {
		if want := round.Colors*(6+1) + 2*k; round.FlitSteps != want {
			t.Errorf("round %d: %d flit steps, want Δ·(L+1)+2·log n = %d",
				round.Round, round.FlitSteps, want)
		}
		sum += round.FlitSteps
	}
	if sum != res.FlitSteps {
		t.Errorf("total %d ≠ Σ rounds %d", res.FlitSteps, sum)
	}
}

func TestRunQRelationColorsScaleWithB(t *testing.T) {
	n, q := 64, 8
	var prev int
	for i, b := range []int{1, 2, 4} {
		r := rng.New(5)
		pairs := RandomQRelation(n, q, r)
		res := RunQRelation(pairs, Params{N: n, Q: q, L: 6, B: b}, r)
		if len(res.Rounds) == 0 {
			t.Fatal("no rounds")
		}
		colors := res.Rounds[0].Colors
		if i > 0 && colors >= prev {
			t.Errorf("B=%d: Δ=%d did not shrink from %d", b, colors, prev)
		}
		prev = colors
	}
}

func TestRunQRelationSmallQDuplicates(t *testing.T) {
	// q < log n: round 0 must carry ⌈log n/q⌉ copies per message.
	n, q := 64, 1
	r := rng.New(9)
	pairs := RandomQRelation(n, q, r)
	res := RunQRelation(pairs, Params{N: n, Q: q, L: 6, B: 2}, r)
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds")
	}
	if want := topology.Log2(n) * n; res.Rounds[0].Copies != want {
		t.Errorf("round-0 copies = %d, want %d", res.Rounds[0].Copies, want)
	}
}

// TestInvariant312 probes the paper's Invariant 3.1.2: after the
// duplication step of every round, the number of copies held by any
// input stays O(q) — at least half of each round's survivors deliver, so
// doubling never compounds. The deterministic assertion uses a generous
// 2q ceiling (the paper proves ≤ q w.h.p.).
func TestInvariant312(t *testing.T) {
	n, q := 128, 8
	r := rng.New(13)
	pairs := RandomQRelation(n, q, r)
	res := RunQRelation(pairs, Params{N: n, Q: q, L: 7, B: 2}, r)
	if !res.AllDelivered {
		t.Fatal("undelivered")
	}
	for _, round := range res.Rounds {
		if round.MaxPerInput > 2*q {
			t.Errorf("round %d: input holds %d copies > 2q=%d — Invariant 3.1.2 badly violated",
				round.Round, round.MaxPerInput, 2*q)
		}
	}
}

// TestEnginesAgree runs the complete Section 3.1 algorithm on the lockstep
// buckets and on the full flit-level simulator (every subround injected
// into the unrolled two-pass butterfly with drop-on-delay) with
// deterministic arbitration and the same seed: the per-round delivery
// trajectories must match exactly, certifying the lockstep engine as a
// faithful optimization of the flit-level model.
func TestEnginesAgree(t *testing.T) {
	const n, q, b, l = 32, 4, 2, 5
	tp := topology.NewTwoPassButterfly(n)
	lockstep := func(n, b int, routes []TwoPassRoute, r *rng.Source) []int {
		return RunLockstepSubround(n, b, routes, ArbFirst, r)
	}
	flitLevel := func(n, b int, routes []TwoPassRoute, _ *rng.Source) []int {
		res := vcsim.Run(TwoPassPathEndpoints(tp, routes, l), nil, vcsim.Config{
			VirtualChannels: b,
			DropOnDelay:     true,
			Arbitration:     vcsim.ArbByID,
		})
		ids := res.DeliveredIDs()
		out := make([]int, len(ids))
		for i, id := range ids {
			out[i] = int(id)
		}
		return out
	}
	run := func(subround subroundFunc) Result {
		r := rng.New(77)
		pairs := RandomQRelation(n, q, r)
		return runQRelation(pairs, Params{N: n, Q: q, L: l, B: b}, r, subround)
	}
	lock := run(lockstep)
	flit := run(flitLevel)
	if lock.DeliveredMsgs != flit.DeliveredMsgs || lock.FlitSteps != flit.FlitSteps {
		t.Fatalf("engines disagree: lockstep %d/%d steps %d, flit-level %d/%d steps %d",
			lock.DeliveredMsgs, lock.TotalMessages, lock.FlitSteps,
			flit.DeliveredMsgs, flit.TotalMessages, flit.FlitSteps)
	}
	if len(lock.Rounds) != len(flit.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(lock.Rounds), len(flit.Rounds))
	}
	for i := range lock.Rounds {
		if lock.Rounds[i].Delivered != flit.Rounds[i].Delivered ||
			lock.Rounds[i].Copies != flit.Rounds[i].Copies {
			t.Fatalf("round %d differs: %+v vs %+v", i, lock.Rounds[i], flit.Rounds[i])
		}
	}
}

func TestRunQRelationValidatesInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for overloaded input")
		}
	}()
	pairs := []ColPair{{0, 1}, {0, 2}, {0, 3}}
	RunQRelation(pairs, Params{N: 8, Q: 2, L: 4, B: 1}, rng.New(1))
}

func TestBoundMonotone(t *testing.T) {
	prev := 1e18
	for b := 1; b <= 6; b++ {
		v := Bound(1024, 10, 10, b)
		if v >= prev {
			t.Fatalf("Bound not decreasing at B=%d", b)
		}
		prev = v
	}
}

func TestOnePassDeliversAll(t *testing.T) {
	bf := topology.NewButterfly(32)
	r := rng.New(6)
	pairs := RandomDestinations(32, 4, r)
	for _, b := range []int{1, 2, 4} {
		res := RunOnePass(bf, pairs, 5, vcsim.Config{VirtualChannels: b})
		if res.Delivered != res.Messages {
			t.Fatalf("B=%d: %d/%d delivered", b, res.Delivered, res.Messages)
		}
		if res.Steps < 5+5-1 {
			t.Fatalf("B=%d: steps %d below floor", b, res.Steps)
		}
	}
}

func TestOnePassFasterWithMoreChannels(t *testing.T) {
	bf := topology.NewButterfly(64)
	r := rng.New(12)
	pairs := RandomDestinations(64, 8, r)
	prev := 1 << 30
	for _, b := range []int{1, 2, 4} {
		res := RunOnePass(bf, pairs, 6, vcsim.Config{VirtualChannels: b})
		if res.Steps > prev {
			t.Fatalf("B=%d slower (%d) than smaller B (%d)", b, res.Steps, prev)
		}
		prev = res.Steps
	}
}

func TestCollisionFractionMonotoneInS(t *testing.T) {
	bf := topology.NewButterfly(32)
	r := rng.New(8)
	pairs := RandomDestinations(32, 4, r)
	small := CollisionFraction(bf, pairs, 5, 1, 4, 40, r)
	large := CollisionFraction(bf, pairs, 5, 1, 64, 40, r)
	if large < small {
		t.Errorf("collision fraction fell with subset size: %v → %v", small, large)
	}
	if large < 0.9 {
		t.Errorf("64 of 128 messages at B=1 should almost surely collide (got %v)", large)
	}
}

func TestCollisionThreshold(t *testing.T) {
	bf := topology.NewButterfly(32)
	r := rng.New(4)
	pairs := RandomDestinations(32, 4, r)
	s1 := CollisionThreshold(bf, pairs, 5, 1, 20, 0.95, r)
	s2 := CollisionThreshold(bf, pairs, 5, 2, 20, 0.95, r)
	if s1 < 2 || s1 > len(pairs) {
		t.Errorf("threshold B=1 out of range: %d", s1)
	}
	if s2 <= s1 {
		t.Errorf("threshold must grow with B: B=1 %d, B=2 %d", s1, s2)
	}
}

func TestPhasePartition(t *testing.T) {
	bf := topology.NewButterfly(32)
	r := rng.New(3)
	pairs := RandomDestinations(32, 4, r)
	res := RunOnePass(bf, pairs, 5, vcsim.Config{VirtualChannels: 2})
	largest, phases := PhasePartition(res.Result, 5, 5)
	total := 0
	for _, c := range phases {
		total += c
	}
	if total != res.Delivered {
		t.Errorf("phases cover %d, delivered %d", total, res.Delivered)
	}
	if largest <= 0 {
		t.Error("largest phase must be positive")
	}
	// The Theorem 3.2.6 floor: some phase holds ≥ messages·L/T.
	floor := float64(res.Messages) * 5 / float64(res.Steps)
	if float64(largest) < floor-1 {
		t.Errorf("largest phase %d below nqL/T floor %v", largest, floor)
	}
}

func TestRandomWorkloadGenerators(t *testing.T) {
	r := rng.New(10)
	pairs := RandomQRelation(16, 3, r)
	if len(pairs) != 48 {
		t.Fatalf("q-relation size %d", len(pairs))
	}
	perIn := map[int]int{}
	perOut := map[int]int{}
	for _, p := range pairs {
		perIn[p.Src]++
		perOut[p.Dst]++
	}
	for _, c := range perIn {
		if c != 3 {
			t.Fatal("q-relation per-input count")
		}
	}
	for _, c := range perOut {
		if c != 3 {
			t.Fatal("q-relation per-output count")
		}
	}
	rd := RandomDestinations(16, 2, r)
	if len(rd) != 32 {
		t.Fatalf("random destinations size %d", len(rd))
	}
}

func TestTheoreticalCollisionSizePositive(t *testing.T) {
	for b := 1; b <= 4; b++ {
		if TheoreticalCollisionSize(1024, 10, 10, b) <= 0 {
			t.Fatalf("B=%d: nonpositive collision size", b)
		}
	}
}
