// Package core is the public face of the repository: it couples workload
// construction, the Theorem 2.1.6 scheduler, the flit-level simulator, and
// the baselines into runnable experiments — one per table/figure listed in
// README.md — and renders paper-style result tables.
//
// A typical use:
//
//	prob := core.ButterflyQRelation(256, 8, 16, 1)   // n, q, L, seed
//	res := prob.RouteGreedy(core.GreedyOptions{B: 4})
//	sched, ver, err := prob.RouteScheduled(core.ScheduleOptions{B: 4})
//
// Experiments are addressed by ID (F1, F2, T1…T16, A1…A5) through Run.
// Every experiment but F2 is a declaration over one engine, batch.go:
// T1–T11, F1 and A1–A5 are declared in batches.go, the open-loop
// studies T12–T16 in studies.go. F2 is one plain function that runs no
// jobs.
package core

import (
	"fmt"

	"wormhole/internal/analysis"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/schedule"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
	"wormhole/internal/vcsim"
)

// Problem couples a network and a routed message set, ready for
// scheduling or direct simulation.
type Problem struct {
	Label string
	Set   *message.Set

	// Cached path-set parameters.
	C, D, L int
}

// NewProblem wraps a message set, computing its C, D, L parameters.
func NewProblem(label string, set *message.Set) *Problem {
	return &Problem{
		Label: label,
		Set:   set,
		C:     analysis.Congestion(set),
		D:     analysis.Dilation(set),
		L:     set.MaxLength(),
	}
}

// GreedyOptions configures direct (online, blocking) wormhole routing.
type GreedyOptions struct {
	B      int
	Policy vcsim.Policy
	// Metrics optionally collects hot-path telemetry from the run; nil
	// leaves telemetry off (zero cost).
	Metrics *telemetry.Metrics
}

// RouteGreedy injects every message at time 0 and routes greedily.
func (p *Problem) RouteGreedy(opts GreedyOptions) vcsim.Result {
	return vcsim.Run(p.Set, nil, vcsim.Config{
		VirtualChannels: opts.B,
		Arbitration:     opts.Policy,
		Metrics:         opts.Metrics,
	})
}

// ScheduleOptions configures offline Theorem 2.1.6 scheduling.
type ScheduleOptions struct {
	B    int
	Seed uint64
	// SpacingFactor stretches inter-class release spacing (≥ 1; used by
	// the restricted-bandwidth experiment, where draining a class takes
	// up to B times longer). 0 means 1.
	SpacingFactor int
	Restricted    bool
	// Metrics optionally collects hot-path telemetry from the execution
	// run (both the verified and the stretched/restricted paths); nil
	// leaves telemetry off (zero cost).
	Metrics *telemetry.Metrics
}

// constantScale scales the paper's refinement constants (see
// schedule.Options) in every experiment: 0.05 keeps the (D·log D)^(1/B)
// shape while avoiding the paper's astronomically conservative class
// counts.
const constantScale = 0.05

// RouteScheduled builds a Theorem 2.1.6 schedule and executes it on the
// simulator. With SpacingFactor == 1 and Restricted == false the execution
// is also verified against the theorem's zero-stall guarantee.
func (p *Problem) RouteScheduled(opts ScheduleOptions) (*schedule.Schedule, vcsim.Result, error) {
	sched, err := schedule.Build(p.Set, schedule.Options{B: opts.B, ConstantScale: constantScale}, rng.New(opts.Seed))
	if err != nil {
		return nil, vcsim.Result{}, err
	}
	sf := opts.SpacingFactor
	if sf < 1 {
		sf = 1
	}
	if sf == 1 && !opts.Restricted {
		res, err := schedule.VerifyObserved(p.Set, sched, opts.Metrics)
		return sched, res, err
	}
	releases := make([]int, len(sched.Releases))
	for i, r := range sched.Releases {
		releases[i] = r * sf
	}
	res := vcsim.Run(p.Set, releases, vcsim.Config{
		VirtualChannels:     opts.B,
		RestrictedBandwidth: opts.Restricted,
		Metrics:             opts.Metrics,
	})
	if !res.AllDelivered() {
		return sched, res, fmt.Errorf("core: scheduled run delivered %d/%d", res.Delivered, p.Set.Len())
	}
	return sched, res, nil
}

// --- workload builders -------------------------------------------------------

// ButterflyQRelation builds an n-input butterfly carrying a random
// q-relation with L-flit messages on the unique bit-fixing paths.
func ButterflyQRelation(n, q, l int, seed uint64) *Problem {
	r := rng.New(seed)
	bf := topology.NewButterfly(n)
	set := message.NewSet(bf.G)
	for rep := 0; rep < q; rep++ {
		for src, dst := range r.Perm(n) {
			set.Add(bf.Input(src), bf.Output(dst), l, bf.Route(src, dst))
		}
	}
	return NewProblem(fmt.Sprintf("butterfly(n=%d,q=%d)", n, q), set)
}

// ButterflyRandom builds an n-input butterfly where each input sends q
// messages to uniform random outputs (the paper's random routing problem).
func ButterflyRandom(n, q, l int, seed uint64) *Problem {
	r := rng.New(seed)
	bf := topology.NewButterfly(n)
	set := message.NewSet(bf.G)
	for src := 0; src < n; src++ {
		for rep := 0; rep < q; rep++ {
			dst := r.Intn(n)
			set.Add(bf.Input(src), bf.Output(dst), l, bf.Route(src, dst))
		}
	}
	return NewProblem(fmt.Sprintf("butterfly-random(n=%d,q=%d)", n, q), set)
}

// RandomRegularWorkload builds a strongly connected random d-out-regular
// digraph on nodes and routes msgs random source/destination pairs along
// BFS shortest paths.
func RandomRegularWorkload(nodes, deg, msgs, l int, seed uint64) *Problem {
	r := rng.New(seed)
	var g *graph.Graph
	for attempt := 0; ; attempt++ {
		g = topology.NewRandomRegular(nodes, deg, r)
		if topology.StronglyConnected(g) {
			break
		}
		if attempt > 64 {
			panic("core: could not draw a strongly connected random regular graph")
		}
	}
	set := message.NewSet(g)
	route := message.ShortestPathRouter(g)
	for i := 0; i < msgs; i++ {
		src := graph.NodeID(r.Intn(nodes))
		dst := graph.NodeID(r.Intn(nodes))
		for dst == src {
			dst = graph.NodeID(r.Intn(nodes))
		}
		set.Add(src, dst, l, route(src, dst))
	}
	return NewProblem(fmt.Sprintf("random-regular(n=%d,d=%d,msgs=%d)", nodes, deg, msgs), set)
}

// MeshTranspose builds a side×side mesh carrying the transpose permutation
// on dimension-order routes.
func MeshTranspose(side, l int) *Problem {
	m := topology.NewMesh(side, side)
	set := message.NewSet(m.G)
	for _, ep := range message.Transpose(side, func(x, y int) graph.NodeID { return m.Node(x, y) }) {
		set.Add(ep.Src, ep.Dst, l, m.DimensionOrderRoute(ep.Src, ep.Dst))
	}
	return NewProblem(fmt.Sprintf("mesh-transpose(%dx%d)", side, side), set)
}

// LinearHotspot builds a linear array where msgs messages all cross a
// central edge — a maximally congested fixture (C = msgs, D controlled by
// span). span is the number of edges each message traverses.
func LinearHotspot(msgs, span, l int) *Problem {
	if span < 1 {
		panic("core: span must be ≥ 1")
	}
	g := topology.NewLinearArray(span + msgs)
	set := message.NewSet(g)
	route := message.ShortestPathRouter(g)
	for i := 0; i < msgs; i++ {
		src := graph.NodeID(0)
		dst := graph.NodeID(span)
		set.Add(src, dst, l, route(src, dst))
	}
	return NewProblem(fmt.Sprintf("linear-hotspot(msgs=%d,span=%d)", msgs, span), set)
}
