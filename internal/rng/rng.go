// Package rng provides deterministic, splittable pseudo-random number
// generation for reproducible routing experiments.
//
// Every randomized component in this repository (path selection, LLL
// resampling, the butterfly algorithm's color choices, workload generation)
// draws from an rng.Source so that an experiment is fully determined by a
// single 64-bit seed. Sources can be split: a child source derived from a
// parent is statistically independent of both the parent's later output and
// of siblings, which lets concurrent workers share one experiment seed
// without contending on a lock.
//
// The generator is SplitMix64 (Steele, Lea, Flood 2014), chosen because it
// is tiny, fast, passes BigCrush, and — unlike math/rand's global source —
// supports O(1) splitting by construction.
package rng

import "math/bits"

// golden is the 64-bit golden ratio constant used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// Source is a deterministic pseudo-random number generator. The zero value
// is a valid source seeded with 0; use New for explicit seeding.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// State returns the source's current internal state. Reseed(State())
// on a fresh Source reproduces the remaining stream exactly; together
// they let checkpoint codecs persist a mid-run source across process
// restarts.
//
//wormvet:nonalloc
func (s *Source) State() uint64 { return s.state }

// Reseed resets the source to the stream New(seed) would produce,
// reusing the allocation. Engines that are Reset for reuse (vcsim.Sim,
// the traffic Runner) reseed their sources in place so a reused run
// replays the exact stream of a fresh one without allocating.
func (s *Source) Reseed(seed uint64) { s.state = seed }

// Split derives an independent child source. The parent's stream advances by
// one step; the child is seeded from that output, so repeated Split calls
// yield distinct, independent children.
func (s *Source) Split() *Source {
	child := &Source{}
	s.SplitInto(child)
	return child
}

// SplitInto is Split writing into caller-owned storage: child is reseeded
// to exactly the stream Split would have returned, with no allocation.
// Reusable engines keep their per-endpoint sources in a flat slice and
// re-derive them in place each run.
func (s *Source) SplitInto(child *Source) {
	child.state = s.Uint64() ^ 0xA5A5A5A5A5A5A5A5
}

// Advance moves the stream past its next n outputs in O(1): the source
// ends where n calls to Uint64 would have left it. Every method here
// draws whole Uint64 outputs, so a caller that knows how many a stretch
// of its stream consumed can skip it without drawing.
//
//wormvet:nonalloc
func (s *Source) Advance(n uint64) { s.state += n * golden }

// Uint64 returns the next 64 bits of the stream.
//
//wormvet:nonalloc
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
//
//wormvet:nonalloc
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method, which avoids modulo bias without
// divisions in the common case.
//
//wormvet:nonalloc
func (s *Source) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
//
//wormvet:nonalloc
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform boolean.
//
//wormvet:nonalloc
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Perm returns a uniform random permutation of [0, n) as a slice.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
//
//wormvet:nonalloc
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct uniform values from [0, n) in random order.
// It panics if k > n or k < 0.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample called with k out of range")
	}
	// Partial Fisher–Yates over an index map: O(k) space for k << n.
	chosen := make([]int, 0, k)
	remap := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		vj, ok := remap[j]
		if !ok {
			vj = j
		}
		vi, ok := remap[i]
		if !ok {
			vi = i
		}
		remap[j] = vi
		chosen = append(chosen, vj)
	}
	return chosen
}
