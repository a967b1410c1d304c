package butterfly

import (
	"math"

	"wormhole/internal/analysis"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
	"wormhole/internal/vcsim"
)

// OnePassResult reports a run of the greedy one-pass router — the class of
// algorithms the Section 3.2 lower bound covers: the simulator's Result
// (Steps is the flit step that delivers everything) and the bound.
type OnePassResult struct {
	vcsim.Result
	Messages int
	Bound    float64 // Theorem 3.2.1 form L·q·l^(1/B)/B
}

// RunOnePass routes the demands down an n-input butterfly along their
// unique bit-fixing paths using greedy blocking wormhole routing under cfg
// (B = cfg.VirtualChannels), all messages injected at time 0. The
// butterfly is a leveled DAG, so the run is deadlock-free; it terminates
// when every worm has drained.
func RunOnePass(bf *topology.Butterfly, pairs []ColPair, l int, cfg vcsim.Config) OnePassResult {
	set := message.NewSet(bf.G)
	for _, p := range pairs {
		set.Add(bf.Input(p.Src), bf.Output(p.Dst), l, bf.Route(p.Src, p.Dst))
	}
	res := vcsim.Run(set, nil, cfg)
	if res.Deadlocked {
		panic("butterfly: one-pass routing deadlocked on a leveled DAG")
	}
	q := (len(pairs) + bf.Inputs - 1) / bf.Inputs
	return OnePassResult{Result: res, Messages: set.Len(), Bound: OnePassBound(bf.Inputs, q, l, cfg.VirtualChannels)}
}

// OnePassBound evaluates the Theorem 3.2.1 lower-bound form
// L·q·l^(1/B)/B with l = min(L, log n) (the slowly growing w₂ factor is
// dropped, as the experiments compare shapes, not constants).
func OnePassBound(n, q, l, b int) float64 {
	ll := math.Min(float64(l), float64(log2(n)))
	return float64(l) * float64(q) * math.Pow(ll, 1/float64(b)) / float64(b)
}

// CollisionFraction estimates, by sampling, the probability that a uniform
// random s-subset of the messages collides — i.e., contains B+1 messages
// whose bit-fixing paths share an edge (Definition 3.2.2). Theorem 3.2.5
// asserts this tends to 1 once s reaches ≈ 3·B·n·log^(2/B)(q log n)/l^(1/(B+1)).
func CollisionFraction(bf *topology.Butterfly, pairs []ColPair, l, b, s, trials int, r *rng.Source) float64 {
	if s > len(pairs) {
		s = len(pairs)
	}
	set := message.NewSet(bf.G)
	for _, p := range pairs {
		truncated := bf.Route(p.Src, p.Dst)
		if l < len(truncated) {
			// The proof works on the truncated butterfly: only the first
			// l = min(L, log n) levels matter.
			truncated = truncated[:l]
			dst := bf.G.Edge(truncated[len(truncated)-1]).Head
			set.Add(bf.Input(p.Src), dst, l, truncated)
			continue
		}
		set.Add(bf.Input(p.Src), bf.Output(p.Dst), l, truncated)
	}
	hits := 0
	ids := make([]message.ID, s)
	for t := 0; t < trials; t++ {
		for j, idx := range r.Sample(len(pairs), s) {
			ids[j] = message.ID(idx)
		}
		sub, _ := set.Subset(ids)
		if analysis.CollidingSubset(sub, b) != nil {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

// CollisionThreshold binary-searches the smallest subset size s at which
// the sampled collision fraction reaches the given confidence (e.g. 0.99),
// between 1 and len(pairs). It returns len(pairs)+1 if even the full set
// does not collide.
func CollisionThreshold(bf *topology.Butterfly, pairs []ColPair, l, b, trials int, conf float64, r *rng.Source) int {
	lo, hi := b+1, len(pairs)
	if CollisionFraction(bf, pairs, l, b, hi, trials, r) < conf {
		return hi + 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if CollisionFraction(bf, pairs, l, b, mid, trials, r) >= conf {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TheoreticalCollisionSize evaluates the s of Theorem 3.2.5:
// 3·B·n·log^(2/B)(q·log n) / l^(1/(B+1)).
func TheoreticalCollisionSize(n, q, l, b int) float64 {
	ln := float64(log2(n))
	lg := math.Log2(math.Max(2, float64(q)*ln))
	ll := math.Min(float64(l), ln)
	return 3 * float64(b) * float64(n) * math.Pow(lg, 2/float64(b)) / math.Pow(ll, 1/float64(b+1))
}

// PhasePartition applies the Theorem 3.2.6 argument to a finished run:
// bucket messages by header arrival time into phases of width L starting
// at offset l, and return the size of the largest phase. The theorem
// guarantees some phase holds ≥ nqL/T messages, and the messages of one
// phase are delivered without colliding — the hinge of the lower bound.
func PhasePartition(res vcsim.Result, l, L int) (largest int, phases map[int]int) {
	phases = make(map[int]int)
	for i := range res.PerMessage {
		st := res.PerMessage[i]
		if st.Status != vcsim.StatusDelivered {
			continue
		}
		// Header arrival is deliver − (L−1) for an L-flit worm.
		h := st.DeliverTime - (L - 1)
		ph := 0
		if h > l {
			ph = (h - l + L - 1) / L
		}
		phases[ph]++
		if phases[ph] > largest {
			largest = phases[ph]
		}
	}
	return largest, phases
}

// TwoPassPathEndpoints builds the message set for one subround on the
// unrolled two-pass butterfly graph — used by tests to cross-validate the
// lockstep simulation against the full flit-level simulator.
func TwoPassPathEndpoints(t *topology.TwoPassButterfly, routes []TwoPassRoute, l int) *message.Set {
	set := message.NewSet(t.G)
	for _, rt := range routes {
		p := t.Route(rt.Src, rt.Mid, rt.Dst)
		set.Add(t.Input(rt.Src), t.Output(rt.Dst), l, p)
	}
	return set
}
