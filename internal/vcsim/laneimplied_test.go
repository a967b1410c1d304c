package vcsim

// Directed tests for lane-implied bandwidth (see Sim.crossings): the rigid
// kernel skips the bandwidth meter on body edges only while the meter
// provably cannot bind there. Each test below stands on one side of that
// condition — cap < B, a mid-run role flip, kill debt, a contended final
// edge — and pins the wakeup engine, running the elided path
// (CheckInvariants off) and the fully metered, self-checking one (on), to
// the naive scan, which has no role bits and so always meters every edge.

import (
	"fmt"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
)

// fanIn builds srcs private approach edges s_i→x, one shared edge x→y and —
// when tails is set — private exits y→t_i, with one L-flit message per
// source. Without tails x→y is every message's final edge; with them it is
// every message's body edge.
func fanIn(srcs, length int, tails bool) (set *message.Set, shared graph.EdgeID) {
	g := graph.New(0, 0)
	x, y := g.AddNode("x"), g.AddNode("y")
	shared = g.AddEdge(x, y)
	set = message.NewSet(g)
	for i := 0; i < srcs; i++ {
		s := g.AddNode(fmt.Sprintf("s%d", i))
		path := graph.Path{g.AddEdge(s, x), shared}
		dst := y
		if tails {
			dst = g.AddNode(fmt.Sprintf("t%d", i))
			path = append(path, g.AddEdge(y, dst))
		}
		set.Add(s, dst, length, path)
	}
	return set, shared
}

// runPair drives the whole set through a simPair in lockstep and returns
// the pair, drained, with stall attribution already compared.
func runPair(t *testing.T, label string, set *message.Set, releases []int, cfg Config) *simPair {
	t.Helper()
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1 << 14
	}
	p := newSimPair(t, set.G, cfg)
	for i := 0; i < set.Len(); i++ {
		rel := 0
		if releases != nil {
			rel = releases[i]
		}
		p.inject(t, set.Get(message.ID(i)), rel)
	}
	p.drain(t, label)
	p.requireSameStalls(t, label)
	return p
}

// TestLaneImpliedRestrictedStillMeters: under RestrictedBandwidth cap is
// 1 < B, the argument does not apply, and body edges must keep refusing.
// Four worms share one body edge with B = 4 lanes to spare, so every stall
// is a bandwidth stall on that edge and none is a lane-credit stall.
func TestLaneImpliedRestrictedStillMeters(t *testing.T) {
	for _, check := range []bool{false, true} {
		set, shared := fanIn(4, 5, true)
		cfg := Config{VirtualChannels: 4, RestrictedBandwidth: true, Arbitration: ArbAge, CheckInvariants: check}
		p := runPair(t, "fan-in", set, nil, cfg)
		res, snap := p.wake.Result(), p.wake.met.Snapshot()
		if !res.AllDelivered() || res.TotalStalls == 0 {
			t.Fatalf("check=%v: want a contended, fully delivered run, got %+v", check, res)
		}
		if bw := snap.Counter("stall_bandwidth"); bw != int64(res.TotalStalls) || snap.EdgeStalls[shared] != bw {
			t.Fatalf("check=%v: %d stalls, %d charged to bandwidth, %d of them on the shared body edge; want all three equal",
				check, res.TotalStalls, bw, snap.EdgeStalls[shared])
		}

		// The same model on a real network, every policy.
		r := rng.New(41)
		bf := topology.NewButterfly(16)
		wide := message.NewSet(bf.G)
		var releases []int
		for i := 0; i < 96; i++ {
			src, dst := r.Intn(16), r.Intn(16)
			wide.Add(bf.Input(src), bf.Output(dst), 2+r.Intn(6), bf.Route(src, dst))
			releases = append(releases, r.Intn(24))
		}
		for _, pol := range []Policy{ArbByID, ArbAge, ArbRandom} {
			cfg.Arbitration, cfg.Seed = pol, 41
			p := runPair(t, "butterfly/"+pol.String(), wide, releases, cfg)
			if snap := p.wake.met.Snapshot(); snap.Counter("stall_bandwidth") == 0 {
				t.Fatalf("%s check=%v: no bandwidth stall on a cap-1 butterfly; the fixture is too light", pol, check)
			}
		}
	}
}

// TestLaneImpliedFlipMidRun: an incremental run starts unmixed (every
// message ends at the line's last node), so body edges go unmetered; then
// an Inject with worms in flight makes the interior edge 4→5 somebody's
// final edge. From the next step on the kernel must meter everything again
// with nothing to repair, because the meter is per-step scratch: the
// one-hop worms cross 4→5 without holding a lane, take its whole capacity
// two at a time, and the long worms released behind them — lower priority
// under every deterministic policy — must be refused on what is, for them,
// a body edge.
func TestLaneImpliedFlipMidRun(t *testing.T) {
	g := topology.NewLinearArray(7)
	route := message.ShortestPathRouter(g)
	long := message.Message{Src: 0, Dst: 6, Length: 6, Path: route(0, 6)}
	flip := message.Message{Src: 4, Dst: 5, Length: 4, Path: route(4, 5)}
	for _, pol := range []Policy{ArbByID, ArbAge, ArbRandom} {
		for _, check := range []bool{false, true} {
			p := newSimPair(t, g, Config{VirtualChannels: 2, Arbitration: pol, Seed: 3, MaxSteps: 1 << 14, CheckInvariants: check})
			for i := 0; i < 12; i++ {
				p.inject(t, long, 0)
			}
			for step := 0; step < 20; step++ {
				p.step(t, pol.String())
			}
			if !p.wake.laneImplied() || p.wake.inFlight() == 0 {
				t.Fatalf("%s: want an unmixed run with worms in flight before the flip (implied=%v, in flight %d)",
					pol, p.wake.laneImplied(), p.wake.inFlight())
			}
			now := p.wake.Now()
			for i := 0; i < 16; i++ {
				p.inject(t, flip, now+i/2)
			}
			if p.wake.laneImplied() {
				t.Fatalf("%s: the flip message left the classification unmixed", pol)
			}
			for i := 0; i < 8; i++ {
				p.inject(t, long, now)
			}
			p.drain(t, pol.String())
			p.requireSameStalls(t, pol.String())
			if res := p.wake.Result(); !res.AllDelivered() {
				t.Fatalf("%s: run did not drain: %+v", pol, res)
			}
			if snap := p.wake.met.Snapshot(); snap.Counter("stall_bandwidth") == 0 {
				t.Fatalf("%s: no bandwidth stall after the flip; the fixture never exercised the restored meter", pol)
			}
		}
	}
}

// TestLaneImpliedLaneKillDebt: lane kills land while worms hold the lanes,
// driving laneFree negative. Debt only removes grants — it never adds a
// crosser — so the elision must survive it on an (unmixed) butterfly.
func TestLaneImpliedLaneKillDebt(t *testing.T) {
	bf := topology.NewButterfly(8)
	r := rng.New(77)
	set := message.NewSet(bf.G)
	var releases []int
	for i := 0; i < 64; i++ {
		src, dst := r.Intn(8), r.Intn(8)
		set.Add(bf.Input(src), bf.Output(dst), 3+r.Intn(5), bf.Route(src, dst))
		releases = append(releases, r.Intn(12))
	}
	// Both lanes of every second-level edge die mid-burst and come back one
	// at a time.
	var sched fault.Schedule
	for e, edge := range bf.G.Edges() {
		if bf.Level(edge.Tail) != 1 {
			continue
		}
		sched = append(sched,
			fault.Event{Step: 6, Edge: e, Kind: fault.KillLane},
			fault.Event{Step: 9, Edge: e, Kind: fault.KillLane},
			fault.Event{Step: 40, Edge: e, Kind: fault.ReviveLane},
			fault.Event{Step: 55, Edge: e, Kind: fault.ReviveLane})
	}
	sched.Sort()
	for _, pol := range []Policy{ArbByID, ArbAge, ArbRandom} {
		for _, check := range []bool{false, true} {
			cfg := Config{VirtualChannels: 2, Arbitration: pol, Seed: 77, MaxSteps: 1 << 14, CheckInvariants: check, Faults: sched}
			p := newSimPair(t, bf.G, cfg)
			for i := 0; i < set.Len(); i++ {
				p.inject(t, set.Get(message.ID(i)), releases[i])
			}
			debt := false
			for p.wake.Active() > 0 && p.step(t, pol.String()) == nil {
				for _, r := range p.wake.edges {
					debt = debt || r.laneFree < 0
				}
			}
			p.requireSameStalls(t, pol.String())
			if !p.wake.laneImplied() {
				t.Fatalf("%s: a butterfly workload turned mixed", pol)
			}
			if !debt {
				t.Fatalf("%s: laneFree never went negative; the kills missed every occupied lane", pol)
			}
			if res := p.wake.Result(); !res.AllDelivered() {
				t.Fatalf("%s: run did not drain: %+v", pol, res)
			}
		}
	}
}

// TestLaneImpliedFinalEdgeContention: the final edge is the one place the
// meter still binds at cap == B — it is crossed without holding a lane, so
// any number of worms can meet there. Six worms converge on one output
// over private approach edges: no lane is ever short, yet only B = 2 may
// deliver a flit per step, and the rest must stall on bandwidth there.
func TestLaneImpliedFinalEdgeContention(t *testing.T) {
	for _, pol := range []Policy{ArbByID, ArbAge, ArbRandom} {
		for _, check := range []bool{false, true} {
			set, final := fanIn(6, 4, false)
			p := runPair(t, pol.String(), set, nil, Config{VirtualChannels: 2, Arbitration: pol, Seed: 9, CheckInvariants: check})
			if !p.wake.laneImplied() {
				t.Fatalf("%s: fan-in to one output must stay unmixed", pol)
			}
			res, snap := p.wake.Result(), p.wake.met.Snapshot()
			if !res.AllDelivered() || res.TotalStalls == 0 {
				t.Fatalf("%s check=%v: want a contended, fully delivered run, got %+v", pol, check, res)
			}
			if bw := snap.Counter("stall_bandwidth"); bw != int64(res.TotalStalls) || snap.EdgeStalls[final] != bw {
				t.Fatalf("%s check=%v: %d stalls, %d charged to bandwidth, %d of them on the final edge; want all three equal",
					pol, check, res.TotalStalls, bw, snap.EdgeStalls[final])
			}
			// 6 worms × 4 flits through a 2-flit-per-step edge, first flit
			// arriving in step 2: nothing finishes before step 13.
			if res.Steps < 13 {
				t.Fatalf("%s check=%v: finished in %d steps; the final edge carried more than B flits a step", pol, check, res.Steps)
			}
		}
	}
}

// BenchmarkRigidAdvance measures the rigid kernel's cost per worm advance
// on butterflies at B = 2, ArbAge, Bernoulli arrivals, uniform
// destinations, along two axes.
//
// Length, on the knee workloads' n = 64 network at message lengths 2, 6
// and 24: the offered flit load is held at 0.8 of the L = 6 knee (0.306
// messages, i.e. 1.84 flits, per input per step), so the network is busy
// but keeps up at every length. An advance crosses up to min(L, 6) edges;
// with lane-implied bandwidth it meters at most one of them, so ns/advance
// should not grow with L.
//
// Width, at L = 4 and 0.02 messages per input per step (the sparse-wide
// operating point) on n = 64 and n = 4096: the load per edge is the same,
// but the narrow network's per-edge state is L1-resident and the wide
// one's 98 304 edges are not, so the gap between the two is what an
// advance pays in cache misses on edge state (see edgeRec).
func BenchmarkRigidAdvance(b *testing.B) {
	knee := func(l int) float64 { return 0.8 * 0.306 * 6 / float64(l) }
	for _, c := range []struct {
		name     string
		n, l     int
		p        float64 // arrival probability per input per step
		arrivals int     // steps of arrivals
	}{
		{"L=2", 64, 2, knee(2), 2048},
		{"L=6", 64, 6, knee(6), 2048},
		{"L=24", 64, 24, knee(24), 2048},
		{"sparse/n=64", 64, 4, 0.02, 16384},
		{"sparse/n=4096", 4096, 4, 0.02, 512},
	} {
		b.Run(c.name, func(b *testing.B) {
			bf := topology.NewButterfly(c.n)
			r := rng.New(17)
			var msgs []message.Message
			var releases []int
			for t := 0; t < c.arrivals; t++ {
				for src := 0; src < c.n; src++ {
					if r.Float64() < c.p {
						dst := r.Intn(c.n)
						msgs = append(msgs, message.Message{Src: bf.Input(src), Dst: bf.Output(dst), Length: c.l, Path: bf.Route(src, dst)})
						releases = append(releases, t)
					}
				}
			}
			sim, err := NewSim(bf.G, Config{VirtualChannels: 2, Arbitration: ArbAge, MaxSteps: MaxHorizon})
			if err != nil {
				b.Fatal(err)
			}
			// Every delivered worm advances D+L−1 times (frontier 0 → D+L−1).
			advances := len(msgs) * (bf.Levels + c.l - 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sim.Reset()
				for j, m := range msgs {
					if _, err := sim.Inject(m, releases[j]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				sim.Drain()
				if sim.Delivered() != len(msgs) {
					b.Fatalf("delivered %d of %d", sim.Delivered(), len(msgs))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*advances), "ns/advance")
		})
	}
}
