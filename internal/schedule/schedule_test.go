package schedule

import (
	"math"
	"testing"
	"testing/quick"

	"wormhole/internal/analysis"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
	"wormhole/internal/vcsim"
)

func butterflyWorkload(n, q, l int, seed uint64) *message.Set {
	r := rng.New(seed)
	bf := topology.NewButterfly(n)
	s := message.NewSet(bf.G)
	for rep := 0; rep < q; rep++ {
		for src, dst := range r.Perm(n) {
			s.Add(bf.Input(src), bf.Output(dst), l, bf.Route(src, dst))
		}
	}
	return s
}

func TestPlanRegimes(t *testing.T) {
	// C ≤ B: no refinement needed.
	if p := Plan(3, 100, 4, 1); p != nil {
		t.Errorf("C ≤ B plan = %v, want empty", p)
	}
	// C ≤ log D: a single Case1 step.
	p := Plan(5, 1024, 2, 1) // log D = 10 ≥ C = 5
	if len(p) != 1 || p[0].Case != Case1 || p[0].Ms != 5 || p[0].Mf != 2 {
		t.Errorf("small-C plan = %v", p)
	}
	// log D < C ≤ D: Case2 then Case1.
	p = Plan(64, 256, 2, 1) // log D = 8 < 64 ≤ 256
	if len(p) != 2 || p[0].Case != Case2 || p[1].Case != Case1 {
		t.Errorf("mid-C plan = %v", p)
	}
	if p[0].Mf != 8 {
		t.Errorf("Case2 target = %d, want log D = 8", p[0].Mf)
	}
	// C > D: Case3 first.
	p = Plan(10000, 16, 2, 1)
	if len(p) < 3 || p[0].Case != Case3 {
		t.Errorf("large-C plan = %v", p)
	}
	// Multiplex targets must be decreasing and end at B.
	last := 10001
	for _, s := range p {
		if s.Ms >= last && last != 10001 {
			t.Errorf("non-decreasing ms in %v", p)
		}
		if s.Mf >= s.Ms {
			t.Errorf("step %v does not shrink", s)
		}
		last = s.Ms
	}
	if p[len(p)-1].Mf != 2 {
		t.Errorf("plan must end at B: %v", p)
	}
}

func TestPlanCase2TargetsRespectB(t *testing.T) {
	// When B exceeds log D, phase B must target B, not log D.
	p := Plan(64, 16, 8, 1) // log D = 4 < B = 8
	for _, s := range p {
		if s.Mf < 8 {
			t.Errorf("step %v overshoots below B", s)
		}
	}
	if p[len(p)-1].Mf != 8 {
		t.Errorf("plan must end at B: %v", p)
	}
}

func TestBoundEvaluators(t *testing.T) {
	// Monotone decreasing in B.
	prevU, prevL := math.Inf(1), math.Inf(1)
	for b := 1; b <= 8; b++ {
		u := UpperBound216(32, 16, 16, b)
		l := LowerBound221(32, 16, 16, b)
		if u >= prevU || l >= prevL {
			t.Fatalf("bounds not decreasing at B=%d", b)
		}
		prevU, prevL = u, l
	}
	// B=1 closed forms: UB = (L+D)·C·(D·logD); LB = L·C·D.
	if got, want := LowerBound221(32, 16, 16, 1), 32.0*16*16; got != want {
		t.Errorf("LB(B=1) = %v, want %v", got, want)
	}
	if got, want := NaiveBound(32, 16, 16), (32.0+16)*16*16; got != want {
		t.Errorf("naive = %v, want %v", got, want)
	}
	if got, want := StoreAndForwardBound(32, 16, 16), 32.0*32; got != want {
		t.Errorf("SAF = %v, want %v", got, want)
	}
	// Superlinear speedup: B·D^(1−1/B) > B for D > 1, B > 1.
	if PredictedSpeedup(64, 2) <= 2 {
		t.Error("predicted speedup must exceed B")
	}
	if PredictedSpeedup(64, 1) != 1 {
		t.Error("B=1 speedup is 1")
	}
}

func TestBuildAndVerify(t *testing.T) {
	set := butterflyWorkload(32, 6, 20, 5)
	c := analysis.Congestion(set)
	d := analysis.Dilation(set)
	for _, b := range []int{1, 2, 3, 4} {
		sched, err := Build(set, Options{B: b, ConstantScale: 0.05}, rng.New(uint64(b)*13))
		if err != nil {
			t.Fatalf("B=%d: %v", b, err)
		}
		if sched.C != c || sched.D != d {
			t.Errorf("B=%d: schedule params C=%d D=%d, want %d %d", b, sched.C, sched.D, c, d)
		}
		if ms := analysis.MultiplexSize(set, sched.Colors); ms > b {
			t.Fatalf("B=%d: final multiplex %d", b, ms)
		}
		res, err := Verify(set, sched)
		if err != nil {
			t.Fatalf("B=%d verify: %v", b, err)
		}
		if res.TotalStalls != 0 {
			t.Fatalf("B=%d: %d stalls", b, res.TotalStalls)
		}
		if res.Steps > sched.LengthUB {
			t.Fatalf("B=%d: makespan %d > bound %d", b, res.Steps, sched.LengthUB)
		}
	}
}

func TestClassCountShrinksWithB(t *testing.T) {
	set := butterflyWorkload(32, 8, 16, 9)
	prev := 1 << 30
	for _, b := range []int{1, 2, 4} {
		sched, err := Build(set, Options{B: b, ConstantScale: 0.05}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if sched.NumClasses >= prev {
			t.Errorf("B=%d: classes %d did not shrink (prev %d)", b, sched.NumClasses, prev)
		}
		prev = sched.NumClasses
	}
}

func TestBuildWithPaperConstants(t *testing.T) {
	// Full paper constants on a small instance: classes are many but the
	// construction must succeed without escalation (the LLL condition
	// holds with margin).
	set := butterflyWorkload(8, 3, 8, 2)
	sched, err := Build(set, Options{B: 2, ConstantScale: 1.0}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sched.Steps {
		if st.Escalated {
			t.Errorf("paper constants should not need escalation: %+v", st)
		}
	}
	if _, err := Verify(set, sched); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAggressiveScaleEscalates(t *testing.T) {
	// A ridiculously small scale forces escalation but must still
	// terminate with a valid schedule.
	set := butterflyWorkload(16, 6, 8, 3)
	sched, err := Build(set, Options{B: 1, ConstantScale: 0.001}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if ms := analysis.MultiplexSize(set, sched.Colors); ms > 1 {
		t.Fatalf("multiplex %d after escalation", ms)
	}
	if _, err := Verify(set, sched); err != nil {
		t.Fatal(err)
	}
}

func TestResampleWholeAlsoWorks(t *testing.T) {
	set := butterflyWorkload(16, 4, 8, 4)
	sched, err := Build(set, Options{B: 2, ConstantScale: 0.05, ResampleWhole: true}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(set, sched); err != nil {
		t.Fatal(err)
	}
}

func TestCongestionAtMostBIsOneClass(t *testing.T) {
	// A single permutation on the butterfly has congestion ≤ some small
	// value; with B ≥ C everything fits in one class.
	set := butterflyWorkload(16, 1, 8, 6)
	c := analysis.Congestion(set)
	sched, err := Build(set, Options{B: c}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumClasses != 1 {
		t.Errorf("B ≥ C should give one class, got %d", sched.NumClasses)
	}
	res, err := Verify(set, sched)
	if err != nil {
		t.Fatal(err)
	}
	if want := sched.D + sched.L - 1; res.Steps != want {
		t.Errorf("single class makespan %d, want %d", res.Steps, want)
	}
}

func TestNaiveSchedule(t *testing.T) {
	set := butterflyWorkload(16, 4, 10, 8)
	naive := NaiveSchedule(set)
	if ms := analysis.MultiplexSize(set, naive.Colors); ms > 1 {
		t.Fatalf("naive classes have multiplex %d", ms)
	}
	res, err := Verify(set, naive)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered() {
		t.Fatal("naive schedule undelivered")
	}
	// Class count within the footnote-5 worst case D(C−1)+1.
	c := analysis.Congestion(set)
	d := analysis.Dilation(set)
	if naive.NumClasses > d*(c-1)+1 {
		t.Errorf("naive classes %d exceed D(C-1)+1 = %d", naive.NumClasses, d*(c-1)+1)
	}
}

func TestBuildRejectsNonEdgeSimple(t *testing.T) {
	g := topology.NewLinearArray(3)
	set := message.NewSet(g)
	e01 := g.FindEdge(0, 1)
	e10 := g.FindEdge(1, 0)
	set.Add(0, 1, 2, graph.Path{e01, e10, e01})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-edge-simple input")
		}
	}()
	_, _ = Build(set, Options{B: 1}, rng.New(1))
}

// TestScheduleRescuesDeadlockProneWorkload is the offline scheduler's
// strongest property: on cyclic-pressure torus traffic where greedy
// wormhole routing deadlocks, the Theorem 2.1.6 schedule still delivers
// everything stall-free — conflict-freedom subsumes deadlock-freedom.
func TestScheduleRescuesDeadlockProneWorkload(t *testing.T) {
	m := topology.NewTorus(8)
	set := message.NewSet(m.G)
	// Every node sends 7 hops clockwise: dimension-order routes on the
	// ring wrap and the dependency graph is cyclic.
	for src := 0; src < 8; src++ {
		dst := graph.NodeID((src + 7) % 8)
		set.Add(graph.NodeID(src), dst, 10, m.DimensionOrderRoute(graph.NodeID(src), dst))
	}
	if analysis.ChannelDependencyAcyclic(set) {
		t.Skip("expected a cyclic dependency workload")
	}
	greedy := vcsim.Run(set, nil, vcsim.Config{VirtualChannels: 1})
	if !greedy.Deadlocked {
		t.Fatal("greedy routing should deadlock on wrapping torus traffic")
	}
	sched, err := Build(set, Options{B: 1, ConstantScale: 0.2}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Verify(set, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered() || res.Deadlocked {
		t.Fatal("scheduled routing must deliver where greedy deadlocks")
	}
}

// TestMixedMessageLengths checks the scheduler handles heterogeneous L:
// spacing uses the maximum length so shorter worms simply finish early.
func TestMixedMessageLengths(t *testing.T) {
	bf := topology.NewButterfly(16)
	r := rng.New(21)
	set := message.NewSet(bf.G)
	for rep := 0; rep < 4; rep++ {
		for src, dst := range r.Perm(16) {
			set.Add(bf.Input(src), bf.Output(dst), 2+r.Intn(20), bf.Route(src, dst))
		}
	}
	sched, err := Build(set, Options{B: 2, ConstantScale: 0.1}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if sched.L != set.MaxLength() {
		t.Errorf("schedule L = %d, want max length %d", sched.L, set.MaxLength())
	}
	if _, err := Verify(set, sched); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleReleasesMatchColors(t *testing.T) {
	f := func(seed uint64) bool {
		set := butterflyWorkload(8, 2, 6, seed)
		sched, err := Build(set, Options{B: 1, ConstantScale: 0.1}, rng.New(seed))
		if err != nil {
			return false
		}
		for i, c := range sched.Colors {
			if sched.Releases[i] != c*sched.Spacing {
				return false
			}
			if c < 0 || c >= sched.NumClasses {
				return false
			}
		}
		return sched.LengthUB == sched.NumClasses*sched.Spacing
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestMarkViolatedMatchesMapCount pins the refiner's hashing-free check to
// the obvious one: on random colorings — dense and sparse class-ID spaces,
// tight and loose targets — the messages it marks are exactly those whose
// class has an (edge, class) count above mf in a map keyed by that pair.
func TestMarkViolatedMatchesMapCount(t *testing.T) {
	set := butterflyWorkload(16, 6, 4, 21)
	n := set.Len()
	r := rng.New(5)
	rf := &refiner{set: set}
	for trial := 0; trial < 200; trial++ {
		oldClasses := 1 + r.Intn(12)
		sub := 1 + r.Intn(40)
		mf := 1 + r.Intn(3)
		oldDense := make([]int, n)
		for i := range oldDense {
			oldDense[i] = r.Intn(oldClasses)
		}
		oldDense = densify(oldDense)
		newColor := make([]int, n)
		for i := range newColor {
			newColor[i] = oldDense[i]*sub + r.Intn(sub)
		}

		type key struct {
			e graph.EdgeID
			c int
		}
		counts := map[key]int{}
		wantClasses := map[int]bool{}
		for i := range set.Msgs {
			for _, e := range set.Msgs[i].Path {
				k := key{e, newColor[i]}
				if counts[k]++; counts[k] > mf {
					wantClasses[newColor[i]] = true
				}
			}
		}

		rf.groupByOld(oldDense)
		if got := rf.markViolated(oldDense, newColor, sub, mf); got != len(wantClasses) {
			t.Fatalf("trial %d: %d violated classes, map count says %d", trial, got, len(wantClasses))
		}
		for i := 0; i < n; i++ {
			if rf.bad[i] != wantClasses[newColor[i]] {
				t.Fatalf("trial %d: message %d (class %d) marked %v, map count says %v",
					trial, i, newColor[i], rf.bad[i], wantClasses[newColor[i]])
			}
		}
	}
}

// BenchmarkRefine times the whole refinement pipeline on the workload of
// core.ButterflyQRelation(128, 8, 16): nearly all of Build is the
// resampling rounds' multiplex check.
func BenchmarkRefine(b *testing.B) {
	set := butterflyWorkload(128, 8, 16, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(set, Options{B: 2, ConstantScale: 0.05}, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}
