// Package butterfly implements the paper's Section 3 butterfly-network
// algorithms: the randomized two-pass q-relation routing algorithm of
// Section 3.1 (Theorem 3.1.1) and the one-pass routing experiment matching
// the Section 3.2 lower bound (Theorem 3.2.1), together with the collision
// and phase-partition analyses their proofs rest on.
package butterfly

import (
	"fmt"

	"wormhole/internal/rng"
)

// ColPair is a routing demand between butterfly endpoint columns: a message
// originates at input column Src and must reach output column Dst.
type ColPair struct {
	Src int
	Dst int
}

// TwoPassRoute names the three columns that determine a two-pass worm's
// path: source, random intermediate (reached at level log n), destination.
type TwoPassRoute struct {
	Src, Mid, Dst int
}

// Arb selects how a lockstep subround breaks ties when more than B
// messages claim one edge.
type Arb int8

const (
	// ArbRandom keeps B uniformly chosen claimants (what the randomized
	// algorithms run under).
	ArbRandom Arb = iota
	// ArbFirst keeps the B claimants with the lowest indices
	// (deterministic; matches vcsim's ArbByID for cross-validation).
	ArbFirst
)

// RunLockstepSubround routes a batch of two-pass worms through an n-input
// butterfly in lockstep and returns the indices of survivors (ascending).
//
// All worms of a subround are injected simultaneously, so their headers
// move through the levels in lockstep: at stage t every live header claims
// one stage-t edge. An edge claimed by more than B headers delays the
// excess, and the Section 3.1 algorithm discards any delayed worm, so
// exactly min(B, claimants) survive at each edge. This collapses the
// flit-level simulation to one bucket pass per stage; the equivalence with
// the full vcsim drop-on-delay simulation is asserted by tests.
func RunLockstepSubround(n, b int, copies []TwoPassRoute, arb Arb, r *rng.Source) []int {
	return runLockstepStages(n, b, copies, 2*log2(n), arb, r)
}

// RunLockstepOnePass routes single-pass bit-fixing worms (input column →
// output column) through an n-input butterfly with per-edge capacity b,
// killing the excess at every stage, and returns the surviving indices.
// This is exactly Koch's circuit-switching experiment when worms lock
// their whole path down the butterfly.
func RunLockstepOnePass(n, b int, pairs []ColPair, arb Arb, r *rng.Source) []int {
	routes := make([]TwoPassRoute, len(pairs))
	for i, p := range pairs {
		routes[i] = TwoPassRoute{Src: p.Src, Mid: p.Dst, Dst: p.Dst}
	}
	return runLockstepStages(n, b, routes, log2(n), arb, r)
}

// runLockstepStages simulates the first `stages` stages of the two-pass
// lockstep contention process. Stage t (0-based) fixes butterfly bit
// (t mod log n)+1 toward the intermediate column during the first pass and
// toward the destination during the second.
func runLockstepStages(n, b int, copies []TwoPassRoute, stages int, arb Arb, r *rng.Source) []int {
	if b < 1 {
		panic(fmt.Sprintf("butterfly: B %d < 1", b))
	}
	k := log2(n)
	if stages > 2*k {
		panic(fmt.Sprintf("butterfly: %d stages exceed two passes (%d)", stages, 2*k))
	}
	alive := make([]bool, len(copies))
	cur := make([]int, len(copies))
	for i, c := range copies {
		validateCol(n, c.Src, "src")
		validateCol(n, c.Mid, "mid")
		validateCol(n, c.Dst, "dst")
		alive[i] = true
		cur[i] = c.Src
	}

	// Buckets keyed by the (tail, head) columns of the claimed edge; the
	// stage index is implicit because buckets are cleared per stage.
	type bucketKey struct{ tail, head int }
	order := make([]bucketKey, 0, len(copies))
	buckets := make(map[bucketKey][]int, len(copies))

	for stage := 0; stage < stages; stage++ {
		bit := stage%k + 1
		order = order[:0]
		clear(buckets)
		for i := range copies {
			if !alive[i] {
				continue
			}
			target := copies[i].Mid
			if stage >= k {
				target = copies[i].Dst
			}
			next := setBitTo(cur[i], k, bit, bitAt(target, k, bit))
			key := bucketKey{tail: cur[i], head: next}
			if _, seen := buckets[key]; !seen {
				order = append(order, key)
			}
			buckets[key] = append(buckets[key], i)
			cur[i] = next
		}
		for _, key := range order {
			claim := buckets[key]
			if len(claim) <= b {
				continue
			}
			switch arb {
			case ArbFirst:
				for _, i := range claim[b:] {
					alive[i] = false
				}
			case ArbRandom:
				perm := r.Perm(len(claim))
				for _, pi := range perm[b:] {
					alive[claim[pi]] = false
				}
			default:
				panic(fmt.Sprintf("butterfly: unknown arbitration %d", arb))
			}
		}
	}

	var survivors []int
	for i := range copies {
		if alive[i] {
			survivors = append(survivors, i)
		}
	}
	return survivors
}

func validateCol(n, c int, what string) {
	if c < 0 || c >= n {
		panic(fmt.Sprintf("butterfly: %s column %d out of range [0,%d)", what, c, n))
	}
}

// --- bit helpers (paper numbering: bit 1 = most significant) ----------------

func bitAt(w, k, pos int) int { return (w >> (k - pos)) & 1 }

func setBitTo(w, k, pos, v int) int {
	mask := 1 << (k - pos)
	if v == 0 {
		return w &^ mask
	}
	return w | mask
}

func log2(n int) int {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("butterfly: size %d is not a power of two ≥ 2", n))
	}
	k := 0
	for v := n; v > 1; v >>= 1 {
		k++
	}
	return k
}
