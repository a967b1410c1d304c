package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

// TestAdvanceSkipsOutputs: Advance(n) leaves a source where n draws
// would, including across the wrap of the 64-bit state.
func TestAdvanceSkipsOutputs(t *testing.T) {
	for _, seed := range []uint64{0, 12345, math.MaxUint64 - 3} {
		for _, n := range []uint64{0, 1, 2, 7, 1000} {
			drawn, skipped := New(seed), New(seed)
			for i := uint64(0); i < n; i++ {
				drawn.Uint64()
			}
			skipped.Advance(n)
			if drawn.State() != skipped.State() || drawn.Uint64() != skipped.Uint64() {
				t.Fatalf("seed %d: Advance(%d) differs from %d draws", seed, n, n)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between differently seeded streams", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared-ish sanity: 10 buckets, 100k draws, each bucket within
	// 5% of expectation.
	r := New(42)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for b, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d: %d draws, want ≈%d", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUnbiasedFirstElement(t *testing.T) {
	r := New(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := draws / n
	for v, c := range counts {
		if math.Abs(float64(c-want)) > 0.06*float64(want) {
			t.Errorf("Perm first element %d: %d, want ≈%d", v, c, want)
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFull(t *testing.T) {
	s := New(3).Sample(10, 10)
	seen := make(map[int]bool)
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Sample(10,10) covered %d values", len(seen))
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(77)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children and parent must produce pairwise different streams.
	same12, sameP1 := 0, 0
	for i := 0; i < 100; i++ {
		v1, v2, vp := c1.Uint64(), c2.Uint64(), parent.Uint64()
		if v1 == v2 {
			same12++
		}
		if v1 == vp {
			sameP1++
		}
	}
	if same12 > 0 || sameP1 > 0 {
		t.Errorf("split streams overlap: %d/%d", same12, sameP1)
	}
}

func TestShuffleCoversArrangements(t *testing.T) {
	// All 6 permutations of 3 elements should appear over many shuffles.
	r := New(13)
	seen := make(map[[3]int]int)
	for i := 0; i < 6000; i++ {
		a := [3]int{0, 1, 2}
		r.Shuffle(3, func(i, j int) { a[i], a[j] = a[j], a[i] })
		seen[a]++
	}
	if len(seen) != 6 {
		t.Fatalf("saw %d/6 arrangements", len(seen))
	}
	for a, c := range seen {
		if c < 700 {
			t.Errorf("arrangement %v underrepresented: %d", a, c)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(21)
	trues := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)-draws/2) > 0.03*draws {
		t.Errorf("Bool: %d/%d true", trues, draws)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	_ = s.Uint64()
	_ = s.Intn(10)
}

func TestReseedMatchesNew(t *testing.T) {
	s := New(1)
	for i := 0; i < 10; i++ {
		s.Uint64()
	}
	s.Reseed(42)
	fresh := New(42)
	for i := 0; i < 16; i++ {
		if a, b := s.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reseeded %x != fresh %x", i, a, b)
		}
	}
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	a, b := New(7), New(7)
	var child Source
	for i := 0; i < 8; i++ {
		want := a.Split()
		b.SplitInto(&child)
		for j := 0; j < 4; j++ {
			if x, y := want.Uint64(), child.Uint64(); x != y {
				t.Fatalf("split %d draw %d: %x != %x", i, j, x, y)
			}
		}
	}
}
