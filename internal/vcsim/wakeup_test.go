package vcsim

// Differential tests pinning the blocked-worm wakeup engine to the
// retained naive scan (Config.NaiveScan): every observable of a run —
// aggregates, per-message stats including lazily stamped stalls, blocked
// IDs at deadlock — must be byte-identical between the two steppers,
// under every policy, both models, staggered releases, and drop-on-delay.
// The naive scan is the obviously correct implementation (it literally
// re-attempts every active worm every step), so any divergence is a
// wakeup-engine bug: a worm skipped in a step where it could have moved,
// a stall span stamped short or long, or a wake that reordered
// arbitration.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
)

// diffSteppers executes the workload under the naive scan and under the
// wakeup engine — as configured and, when cfg asks for CheckInvariants,
// once more with it off: the checked run meters every crossed edge and
// re-proves lane-implied bandwidth (see Sim.crossings), the unchecked run
// is the elided path production takes, and both must equal the oracle. It
// returns a description of the first difference, or "" when all agree.
func diffSteppers(set *message.Set, releases []int, cfg Config) string {
	naiveCfg := cfg
	naiveCfg.NaiveScan = true
	naive := Run(set, releases, naiveCfg)
	legs := []bool{cfg.CheckInvariants}
	if cfg.CheckInvariants {
		legs = append(legs, false)
	}
	for _, check := range legs {
		cfg.CheckInvariants = check
		if wake := Run(set, releases, cfg); !reflect.DeepEqual(wake, naive) {
			return fmt.Sprintf("wakeup (CheckInvariants=%v) and naive results differ\nwakeup: %+v\n naive: %+v", check, wake, naive)
		}
	}
	return ""
}

// runBoth fails the test on any difference diffSteppers finds.
func runBoth(t *testing.T, label string, set *message.Set, releases []int, cfg Config) {
	t.Helper()
	if diff := diffSteppers(set, releases, cfg); diff != "" {
		t.Fatalf("%s: %s", label, diff)
	}
}

// TestWakeupMatchesNaiveRandomized is the broad property check: random
// butterfly workloads with staggered releases across the whole config
// space, including ArbRandom (whose shuffle stream the wakeup engine must
// consume identically).
func TestWakeupMatchesNaiveRandomized(t *testing.T) {
	for _, pol := range []Policy{ArbByID, ArbRandom, ArbAge} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			f := func(seed uint64) bool {
				r := rng.New(seed)
				n := 8 << (seed % 2)
				bf := topology.NewButterfly(n)
				set := message.NewSet(bf.G)
				var releases []int
				m := 2 + r.Intn(4*n)
				for i := 0; i < m; i++ {
					src, dst := r.Intn(n), r.Intn(n)
					set.Add(bf.Input(src), bf.Output(dst), 1+r.Intn(8), bf.Route(src, dst))
					releases = append(releases, r.Intn(30))
				}
				// Both model axes are forced, not sampled: the restricted
				// model has its own wake rule (a waiter can decline a slot
				// by failing bandwidth on a body edge), so every seed must
				// exercise it.
				for _, restricted := range []bool{false, true} {
					for _, drop := range []bool{false, true} {
						cfg := Config{
							VirtualChannels:     1 + r.Intn(3),
							RestrictedBandwidth: restricted,
							DropOnDelay:         drop,
							Arbitration:         pol,
							Seed:                seed,
							CheckInvariants:     true,
						}
						if diff := diffSteppers(set, releases, cfg); diff != "" {
							t.Logf("seed %d restricted=%v drop=%v: %s", seed, restricted, drop, diff)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWakeupMatchesNaiveDeepContention drives the regime the wakeup
// engine was built for — far more worms than channels on a shared path,
// with parked spans much longer than the probation streak — and checks
// the lazily stamped stalls agree exactly.
func TestWakeupMatchesNaiveDeepContention(t *testing.T) {
	for _, b := range []int{1, 2, 3} {
		for _, restricted := range []bool{false, true} {
			for _, pol := range []Policy{ArbByID, ArbRandom, ArbAge} {
				set := lineSet(t, 40, 5, 7)
				runBoth(t, pol.String(), set, nil, Config{
					VirtualChannels:     b,
					RestrictedBandwidth: restricted,
					Arbitration:         pol,
					Seed:                7,
					CheckInvariants:     true,
				})
			}
		}
	}
}

// TestWakeupMatchesNaiveStaggeredDrop covers the staggered-release /
// drop-on-delay workload: releases interleave with (and during) blocked
// episodes, and drops release buffer slots that must wake waiters.
func TestWakeupMatchesNaiveStaggeredDrop(t *testing.T) {
	r := rng.New(11)
	bf := topology.NewButterfly(16)
	for trial := 0; trial < 20; trial++ {
		set := message.NewSet(bf.G)
		var releases []int
		for i := 0; i < 24; i++ {
			src, dst := r.Intn(16), r.Intn(16)
			set.Add(bf.Input(src), bf.Output(dst), 2+r.Intn(6), bf.Route(src, dst))
			releases = append(releases, (i%6)*4) // staggered waves
		}
		for _, drop := range []bool{false, true} {
			for _, restricted := range []bool{false, true} {
				for _, pol := range []Policy{ArbByID, ArbAge} {
					runBoth(t, pol.String(), set, releases, Config{
						VirtualChannels:     1 + trial%3,
						RestrictedBandwidth: restricted,
						DropOnDelay:         drop,
						Arbitration:         pol,
						CheckInvariants:     true,
					})
				}
			}
		}
	}
}

// TestWakeupMatchesNaiveDeadlock checks the terminal path: stall stamping
// at deadlock detection and the BlockedIDs report, which the wakeup
// engine reconstructs from its wait queues rather than accumulating.
func TestWakeupMatchesNaiveDeadlock(t *testing.T) {
	set := deadlockSet()
	for _, b := range []int{1, 2} {
		for _, restricted := range []bool{false, true} {
			for _, pol := range []Policy{ArbByID, ArbRandom, ArbAge} {
				runBoth(t, pol.String(), set, nil, Config{
					VirtualChannels:     b,
					RestrictedBandwidth: restricted,
					Arbitration:         pol,
					Seed:                3,
					CheckInvariants:     true,
				})
			}
		}
	}
	// Deadlock reached with worms parked well before the freeze (released
	// latecomers keep the network moving past the probation streak).
	g := set.G
	bigger := message.NewSet(g)
	for i := 0; i < set.Len(); i++ {
		m := set.Get(message.ID(i))
		bigger.Add(m.Src, m.Dst, m.Length, m.Path)
	}
	runBoth(t, "staggered-deadlock", bigger, []int{0, 12}, Config{
		VirtualChannels: 1,
		Arbitration:     ArbAge,
		CheckInvariants: true,
	})
}

// simPair is a wakeup Sim and its NaiveScan twin over one network, fed
// the same messages and stepped side by side; each carries its own Metrics
// so stall attribution can be compared as well as Results.
type simPair struct {
	wake, naive *Sim
}

func newSimPair(t *testing.T, g *graph.Graph, cfg Config) *simPair {
	t.Helper()
	build := func(naive bool) *Sim {
		cfg.NaiveScan, cfg.Metrics = naive, telemetry.NewMetrics()
		sim, err := NewSim(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	return &simPair{wake: build(false), naive: build(true)}
}

func (p *simPair) inject(t *testing.T, m message.Message, release int) {
	t.Helper()
	for _, sim := range []*Sim{p.wake, p.naive} {
		if _, err := sim.Inject(m, release); err != nil {
			t.Fatal(err)
		}
	}
}

// step advances both engines one flit step and requires identical errors
// and identical Result snapshots (which fold in pending lazy stall credit);
// it reports whether the run can continue.
func (p *simPair) step(t *testing.T, label string) bool {
	t.Helper()
	errW, errN := p.wake.Step(), p.naive.Step()
	if (errW == nil) != (errN == nil) {
		t.Fatalf("%s step %d: error mismatch: wakeup %v, naive %v", label, p.wake.Now(), errW, errN)
	}
	if rw, rn := p.wake.Result(), p.naive.Result(); !reflect.DeepEqual(rw, rn) {
		t.Fatalf("%s step %d: snapshots differ\nwakeup: %+v\n naive: %+v", label, p.wake.Now(), rw, rn)
	}
	return errW == nil
}

// drain steps the pair in lockstep until nothing is in flight.
func (p *simPair) drain(t *testing.T, label string) {
	t.Helper()
	for p.wake.Active() > 0 && p.step(t, label) {
	}
}

// requireSameStalls fails unless both engines charged every stall to the
// same cause and the same edge. Call it once the run is over, when every
// parked span has been stamped.
func (p *simPair) requireSameStalls(t *testing.T, label string) {
	t.Helper()
	sw, sn := p.wake.met.Snapshot(), p.naive.met.Snapshot()
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		if !strings.HasPrefix(c.Name(), "stall_") {
			continue
		}
		if w, n := sw.Counter(c.Name()), sn.Counter(c.Name()); w != n {
			t.Errorf("%s: %s = %d under wakeup, %d under naive", label, c.Name(), w, n)
		}
	}
	if !reflect.DeepEqual(sw.EdgeStalls, sn.EdgeStalls) {
		t.Errorf("%s: per-edge stall attribution differs\nwakeup: %v\n naive: %v", label, sw.EdgeStalls, sn.EdgeStalls)
	}
}

// TestWakeupMatchesNaiveLockstep pins mid-run observability: the two
// engines are stepped side by side through the incremental API and their
// Result snapshots — which must fold in pending lazy stall credit — are
// compared after every single step, with the wakeup engine's bandwidth
// metering both checked in full and elided (see Sim.crossings).
func TestWakeupMatchesNaiveLockstep(t *testing.T) {
	r := rng.New(23)
	bf := topology.NewButterfly(8)
	msgs := make([]message.Message, 0, 30)
	releases := make([]int, 0, 30)
	for i := 0; i < 30; i++ {
		src, dst := r.Intn(8), r.Intn(8)
		msgs = append(msgs, message.Message{
			Src: bf.Input(src), Dst: bf.Output(dst), Length: 3 + r.Intn(4), Path: bf.Route(src, dst),
		})
		releases = append(releases, r.Intn(40))
	}
	for _, pol := range []Policy{ArbByID, ArbRandom, ArbAge} {
		for _, check := range []bool{true, false} {
			p := newSimPair(t, bf.G, Config{VirtualChannels: 1, Arbitration: pol, Seed: 5, MaxSteps: 4096, CheckInvariants: check})
			for i, m := range msgs {
				p.inject(t, m, releases[i])
			}
			p.drain(t, pol.String())
		}
	}
}

// TestStepZeroAllocSteadyState asserts the wakeup hot loop is
// allocation-free once warm: stepping a contended network (movers, parked
// worms, wakes, re-parks) must not allocate at all.
func TestStepZeroAllocSteadyState(t *testing.T) {
	g := topology.NewLinearArray(7)
	route := message.ShortestPathRouter(g)
	sim, err := NewSim(g, Config{VirtualChannels: 2, Arbitration: ArbAge, MaxSteps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	msg := message.Message{Src: 0, Dst: graph.NodeID(6), Length: 5, Path: route(0, graph.NodeID(6))}
	for i := 0; i < 600; i++ {
		if _, err := sim.Inject(msg, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scratch buffers and wait-queue capacity.
	for i := 0; i < 200; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(400, func() {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.2f times per step, want 0", allocs)
	}
}

// TestWakeupMatchesNaiveRestrictedBodyBlock is the directed regression
// for the restricted-model wake rule. Construction (B=2, cap=1, ArbByID):
// worms O1/O2 fill edge E's buffer and sit blocked at F behind the long
// worm Z; waiters W1 < W2 park on E after probation. When Z drains, O1
// advances and releases one slot of E. A free-slot-count wake would rouse
// only W1 — but W1's advance also crosses its body edge p→u, where the
// long worm X (earlier in ID order) is streaming flits, so W1 fails on
// *bandwidth* and grants nothing, while the naive scan advances W2
// through the still-free slot. The wakeup engine must therefore wake the
// whole queue when cap < B.
func TestWakeupMatchesNaiveRestrictedBodyBlock(t *testing.T) {
	set, releases := restrictedBodyBlockSet()
	runBoth(t, "restricted-body-block", set, releases, Config{
		VirtualChannels:     2,
		RestrictedBandwidth: true,
		Arbitration:         ArbByID,
		CheckInvariants:     true,
	})
}

// restrictedBodyBlockSet builds the decline-scenario workload described
// above TestWakeupMatchesNaiveRestrictedBodyBlock. The deep-buffer
// differential tests reuse it across the (LaneDepth, SharedPool) grid,
// where a woken worm can decline its credit the same way.
func restrictedBodyBlockSet() (*message.Set, []int) {
	g := graph.New(0, 0)
	u := g.AddNode("u")
	v := g.AddNode("v")
	w := g.AddNode("w")
	p := g.AddNode("p")
	q := g.AddNode("q")
	zs := g.AddNode("zs")
	zt := g.AddNode("zt")
	o1s := g.AddNode("o1s")
	o1t := g.AddNode("o1t")
	o2s := g.AddNode("o2s")
	o2t := g.AddNode("o2t")
	xs := g.AddNode("xs")
	xt := g.AddNode("xt")
	w1s := g.AddNode("w1s")
	w1t := g.AddNode("w1t")
	w2s := g.AddNode("w2s")
	w2t := g.AddNode("w2t")

	e := g.AddEdge(u, v)      // the contended edge E
	f := g.AddEdge(v, w)      // downstream edge F
	ePU := g.AddEdge(p, u)    // W1's body edge, shared with X
	eQU := g.AddEdge(q, u)    // W2's private body edge
	eZin := g.AddEdge(zs, v)  // Z's approach
	eZout := g.AddEdge(w, zt) // Z's exit
	eO1in := g.AddEdge(o1s, u)
	eO1out := g.AddEdge(w, o1t)
	eO2in := g.AddEdge(o2s, u)
	eO2out := g.AddEdge(w, o2t)
	eXin := g.AddEdge(xs, p)
	eXout := g.AddEdge(u, xt)
	eW1in := g.AddEdge(w1s, p)
	eW1out := g.AddEdge(v, w1t)
	eW2in := g.AddEdge(w2s, q)
	eW2out := g.AddEdge(v, w2t)

	set := message.NewSet(g)
	set.Add(zs, zt, 30, graph.Path{eZin, f, eZout})         // Z  (id 0)
	set.Add(o1s, o1t, 2, graph.Path{eO1in, e, f, eO1out})   // O1 (id 1)
	set.Add(o2s, o2t, 2, graph.Path{eO2in, e, f, eO2out})   // O2 (id 2)
	set.Add(xs, xt, 25, graph.Path{eXin, ePU, eXout})       // X  (id 3)
	set.Add(w1s, w1t, 3, graph.Path{eW1in, ePU, e, eW1out}) // W1 (id 4)
	set.Add(w2s, w2t, 3, graph.Path{eW2in, eQU, e, eW2out}) // W2 (id 5)
	return set, []int{0, 0, 0, 20, 0, 0}
}
