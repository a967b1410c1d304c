package butterfly

import (
	"fmt"
	"math"

	"wormhole/internal/rng"
)

// Params configures the Section 3.1 randomized q-relation routing
// algorithm.
type Params struct {
	N int // butterfly inputs (power of two)
	Q int // messages per input / per output
	L int // flits per message
	B int // virtual channels per edge
}

// RoundStats records one round of the algorithm.
type RoundStats struct {
	Round       int
	Undelivered int // originals still undelivered before the round
	Copies      int // total copies routed this round
	Colors      int // Δ
	Delivered   int // originals first delivered during this round
	FlitSteps   int // Δ·L + 2·log n (pipelined subrounds)
	MaxPerInput int // copies held by the busiest input (Invariant 3.1.2 probe)
}

// Result summarizes a run of the Section 3.1 algorithm.
type Result struct {
	Params        Params
	AllDelivered  bool
	DeliveredMsgs int
	TotalMessages int
	FlitSteps     int // Σ rounds (Δ·L + 2·log n)
	Rounds        []RoundStats
}

// Bound evaluates the Theorem 3.1.1 running-time form
// L·(q+log n)·(log n)^(1/B)·log log(nq)/B (without its hidden constant).
func Bound(n, q, l, b int) float64 {
	ln := float64(log2(n))
	return float64(l) * (float64(q) + ln) * math.Pow(ln, 1/float64(b)) *
		math.Max(1, math.Log2(math.Max(2, math.Log2(float64(n*q))))) / float64(b)
}

// RunQRelation executes the Section 3.1 algorithm on the given demands
// (at most q per input column and per output column) and reports delivery
// and timing statistics.
//
// The algorithm (paper Section 3.1):
//  1. each round, every undelivered message doubles its copies (round 0
//     starts with ⌈log n / q⌉ copies when q < log n, per the theorem's
//     final remark, else 1);
//  2. every copy picks a color uniformly from Δ = ⌈q'·log^(1/B) n / B⌉,
//     q' = max(q, log n) (the paper's sufficiently large constant taken
//     as 1);
//  3. the Δ subrounds are routed one per color, pipelined L+1 flit steps
//     apart; each copy makes two passes through the butterfly via a fresh
//     random intermediate column;
//  4. any copy delayed at a switch is discarded; undelivered messages are
//     retried next round.
//
// Time accounting follows the proof of Theorem 3.1.1: a round of Δ
// pipelined subrounds costs Δ·(L+1) + 2·log n flit steps. The paper
// pipelines subrounds exactly L apart; under this repository's
// conservative router (a freed buffer slot becomes visible one step after
// release) consecutive waves would touch at one stage, so the pipeline
// spacing carries a +1 correction — same asymptotics. The pipelining is
// legitimate because discarded worms leave the network instantly, so
// subrounds never interact; tests validate this against the full
// flit-level simulator.
func RunQRelation(pairs []ColPair, p Params, r *rng.Source) Result {
	// The algorithm is randomized, and so is its subround tie-break.
	return runQRelation(pairs, p, r, func(n, b int, routes []TwoPassRoute, r *rng.Source) []int {
		return RunLockstepSubround(n, b, routes, ArbRandom, r)
	})
}

// subroundFunc routes one color's copies through the two-pass butterfly
// and returns the indices of the survivors, ascending.
type subroundFunc func(n, b int, routes []TwoPassRoute, r *rng.Source) []int

// runQRelation is RunQRelation over a given subround executor, so the
// tests can run the whole algorithm on the flit-level simulator and
// require the same trajectory: the lockstep buckets are a verified
// optimization, not an approximation.
func runQRelation(pairs []ColPair, p Params, r *rng.Source, subround subroundFunc) Result {
	k := log2(p.N)
	validateQRelation(pairs, p.N, p.Q)
	rounds := 2*ceilLogLog(p.N*p.Q) + 1 // the paper's round count

	qEff := p.Q
	initCopies := 1
	if p.Q < k {
		// Duplicate so Θ(log n) messages originate per input.
		initCopies = (k + p.Q - 1) / p.Q
		qEff = k
	}
	delta := int(math.Ceil(float64(qEff) * math.Pow(float64(k), 1/float64(p.B)) / float64(p.B)))
	if delta < 1 {
		delta = 1
	}

	res := Result{Params: p, TotalMessages: len(pairs)}
	delivered := make([]bool, len(pairs))
	undelivered := len(pairs)

	copiesPer := initCopies
	for round := 0; round < rounds && undelivered > 0; round++ {
		// Step 1: duplication (skip in round 0).
		if round > 0 {
			copiesPer *= 2
		}
		// Materialize the copies of undelivered originals.
		type copyRef struct {
			orig  int
			route TwoPassRoute
			color int
		}
		var copies []copyRef
		perInput := make(map[int]int)
		for i, pr := range pairs {
			if delivered[i] {
				continue
			}
			for c := 0; c < copiesPer; c++ {
				copies = append(copies, copyRef{
					orig: i,
					route: TwoPassRoute{
						Src: pr.Src,
						Mid: r.Intn(p.N), // step 3: fresh random intermediate
						Dst: pr.Dst,
					},
					color: r.Intn(delta), // step 2: random color
				})
				perInput[pr.Src]++
			}
		}
		maxPerInput := 0
		for _, c := range perInput {
			if c > maxPerInput {
				maxPerInput = c
			}
		}

		// Step 3: route the Δ subrounds.
		deliveredThisRound := 0
		byColor := make([][]int, delta)
		for ci := range copies {
			byColor[copies[ci].color] = append(byColor[copies[ci].color], ci)
		}
		for color := 0; color < delta; color++ {
			idxs := byColor[color]
			if len(idxs) == 0 {
				continue
			}
			routes := make([]TwoPassRoute, len(idxs))
			for j, ci := range idxs {
				routes[j] = copies[ci].route
			}
			for _, surv := range subround(p.N, p.B, routes, r) {
				orig := copies[idxs[surv]].orig
				if !delivered[orig] {
					delivered[orig] = true
					deliveredThisRound++
				}
			}
		}
		undelivered -= deliveredThisRound

		steps := delta*(p.L+1) + 2*k
		res.FlitSteps += steps
		res.Rounds = append(res.Rounds, RoundStats{
			Round:       round,
			Undelivered: undelivered + deliveredThisRound,
			Copies:      len(copies),
			Colors:      delta,
			Delivered:   deliveredThisRound,
			FlitSteps:   steps,
			MaxPerInput: maxPerInput,
		})
	}

	res.DeliveredMsgs = len(pairs) - undelivered
	res.AllDelivered = undelivered == 0
	return res
}

// validateQRelation panics unless at most q messages originate at each
// input. Output overload is permitted: the paper's random routing problem
// may exceed q at an output, which only makes routing harder.
func validateQRelation(pairs []ColPair, n, q int) {
	perIn := make(map[int]int)
	for _, p := range pairs {
		validateCol(n, p.Src, "src")
		validateCol(n, p.Dst, "dst")
		perIn[p.Src]++
	}
	for col, c := range perIn {
		if c > q {
			panic(fmt.Sprintf("butterfly: input %d originates %d > q=%d messages", col, c, q))
		}
	}
}

// RandomQRelation draws a uniformly random q-relation on n columns: q
// independent random permutations stacked.
func RandomQRelation(n, q int, r *rng.Source) []ColPair {
	out := make([]ColPair, 0, n*q)
	for rep := 0; rep < q; rep++ {
		pi := r.Perm(n)
		for src, dst := range pi {
			out = append(out, ColPair{Src: src, Dst: dst})
		}
	}
	return out
}

// RandomDestinations draws the paper's random routing problem: each of the
// n inputs sends q messages to independent uniform outputs.
func RandomDestinations(n, q int, r *rng.Source) []ColPair {
	out := make([]ColPair, 0, n*q)
	for src := 0; src < n; src++ {
		for rep := 0; rep < q; rep++ {
			out = append(out, ColPair{Src: src, Dst: r.Intn(n)})
		}
	}
	return out
}

// ceilLogLog returns ⌈log2 log2 x⌉ clamped to ≥ 1.
func ceilLogLog(x int) int {
	if x < 4 {
		return 1
	}
	l := math.Log2(math.Log2(float64(x)))
	c := int(math.Ceil(l))
	if c < 1 {
		return 1
	}
	return c
}
