package traffic

import (
	"math"
	"sort"
	"testing"

	"wormhole/internal/rng"
)

func TestSketchExactBelow64(t *testing.T) {
	var s Sketch
	for v := 0; v < 64; v++ {
		for k := 0; k <= v%3; k++ {
			s.Add(v)
		}
	}
	if s.Min() != 0 || s.Max() != 63 {
		t.Fatalf("min/max = %d/%d", s.Min(), s.Max())
	}
	// Build the exact multiset and compare a few quantiles exactly.
	var xs []int
	for v := 0; v < 64; v++ {
		for k := 0; k <= v%3; k++ {
			xs = append(xs, v)
		}
	}
	sort.Ints(xs)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		target := int(p*float64(len(xs)) + 0.5)
		if target < 1 {
			target = 1
		}
		if target > len(xs) {
			target = len(xs)
		}
		want := xs[target-1]
		if got := s.Quantile(p); got != float64(want) {
			t.Errorf("p=%g: got %g, want %d", p, got, want)
		}
	}
}

func TestSketchRelativeError(t *testing.T) {
	r := rng.New(9)
	var s Sketch
	var xs []float64
	for i := 0; i < 50_000; i++ {
		// Latency-shaped data: a bulk plus a heavy tail.
		v := 20 + r.Intn(60)
		if r.Intn(10) == 0 {
			v = 100 + r.Intn(5000)
		}
		s.Add(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := s.Quantile(p)
		want := xs[int(p*float64(len(xs)))]
		if relErr := math.Abs(got-want) / want; relErr > 1.0/subBuckets {
			t.Errorf("p=%g: sketch %g vs exact %g (rel err %.3f > %.3f)",
				p, got, want, relErr, 1.0/subBuckets)
		}
	}
	// Mean is exact.
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if got, want := s.Mean(), sum/float64(len(xs)); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean %g != %g", got, want)
	}
}

func TestSketchBucketRoundTrip(t *testing.T) {
	// bucketValue must land back in its own bucket, and bucketOf must be
	// monotone — both break silently if the index math drifts.
	prev := -1
	for v := 0; v < 1_000_000; v = v*9/8 + 1 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		if rb := bucketOf(bucketValue(b)); rb != b {
			t.Fatalf("bucket %d (v=%d): representative %d maps to bucket %d",
				b, v, bucketValue(b), rb)
		}
	}
	// Huge values stay in range and round-trip instead of overflowing.
	if b := bucketOf(math.MaxInt64); b >= numBuckets || bucketOf(bucketValue(b)) != b {
		t.Fatalf("MaxInt64 → bucket %d (of %d), representative round-trips to %d",
			b, numBuckets, bucketOf(bucketValue(b)))
	}
}
