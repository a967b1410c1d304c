package traffic

import "math/bits"

// Sketch is a fixed-size streaming quantile estimator for non-negative
// integer samples (latencies in flit steps). It is a log-bucketed
// histogram in the HDR-histogram style: values below 64 land in exact
// unit buckets; larger values share subBuckets-wide buckets per power of
// two, bounding the relative quantile error at 1/subBuckets ≈ 3.1%.
//
// The sketch is deterministic (no sampling), insertion-order independent,
// and O(1) per Add with a fixed ~15 KiB footprint, so an open-loop run
// can stream millions of latencies without per-sample storage. Count and
// Mean are exact; quantiles are exact below 64 and within the relative
// error bound above it.
type Sketch struct {
	counts [numBuckets]int64
	n      int64
	sum    int64
	min    int
	max    int
}

const (
	subBits    = 5
	subBuckets = 1 << subBits // exact below 2*subBuckets, 3.1% above
	numBuckets = 60 * subBuckets
)

// bucketOf maps a sample to its bucket index.
//
//wormvet:hotpath
func bucketOf(v int) int {
	u := uint64(v)
	if u < 2*subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - subBits - 1 // ≥ 1
	b := exp<<subBits + int(u>>uint(exp))
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketValue returns the representative (midpoint) sample value of a
// bucket, the inverse of bucketOf up to the relative error bound.
func bucketValue(b int) int {
	if b < 2*subBuckets {
		return b
	}
	exp := b>>subBits - 1
	m := b - exp<<subBits // ∈ [subBuckets, 2*subBuckets)
	return m<<uint(exp) + 1<<uint(exp-1)
}

// Add records one sample. Negative samples are clamped to zero.
//
//wormvet:hotpath
func (s *Sketch) Add(v int) {
	if v < 0 {
		v = 0
	}
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.counts[bucketOf(v)]++
	s.n++
	s.sum += int64(v)
}

// Count returns the number of samples recorded.
func (s *Sketch) Count() int64 { return s.n }

// Mean returns the exact sample mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Min returns the smallest sample (0 when empty).
func (s *Sketch) Min() int { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Sketch) Max() int { return s.max }

// Quantile returns an estimate of the p-quantile (0 ≤ p ≤ 1): the
// representative value of the bucket holding the ⌈p·n⌉-th smallest
// sample, clamped to the observed [Min, Max] range.
func (s *Sketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	target := int64(p*float64(s.n) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > s.n {
		target = s.n
	}
	var cum int64
	for b := 0; b < numBuckets; b++ {
		cum += s.counts[b]
		if cum >= target {
			v := bucketValue(b)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return float64(v)
		}
	}
	return float64(s.max)
}
