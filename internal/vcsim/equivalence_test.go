package vcsim

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
)

// axes lists the values a row's inputs take on each axis; an empty axis
// keeps the row's own value.
type axes struct {
	pol        []Policy
	b          []int
	restricted []bool
	drop       []bool
	arch       []arch
	streak     []int
	check      []bool
	telemetry  []bool
}

// cross enumerates every combination of a's values over base.
func (a axes) cross(base checkCfg) []checkCfg {
	out := []checkCfg{base}
	vary := func(n int, set func(c *checkCfg, i int)) {
		if n == 0 {
			return
		}
		next := make([]checkCfg, 0, len(out)*n)
		for _, c := range out {
			for i := range n {
				set(&c, i)
				next = append(next, c)
			}
		}
		out = next
	}
	vary(len(a.pol), func(c *checkCfg, i int) { c.Arbitration = a.pol[i] })
	vary(len(a.b), func(c *checkCfg, i int) { c.VirtualChannels = a.b[i] })
	vary(len(a.restricted), func(c *checkCfg, i int) { c.RestrictedBandwidth = a.restricted[i] })
	vary(len(a.drop), func(c *checkCfg, i int) { c.DropOnDelay = a.drop[i] })
	vary(len(a.arch), func(c *checkCfg, i int) { c.LaneDepth, c.SharedPool = a.arch[i].depth, a.arch[i].shared })
	vary(len(a.streak), func(c *checkCfg, i int) { c.streak = a.streak[i] })
	vary(len(a.check), func(c *checkCfg, i int) { c.CheckInvariants = a.check[i] })
	vary(len(a.telemetry), func(c *checkCfg, i int) { c.telemetry = a.telemetry[i] })
	return out
}

// simRow is one row of TestSimEquivalences: build returns input seed's
// workload and base configuration (a nil set: no input at this seed), axes
// crosses the configuration, and expect, when set, is what every
// combination's result must also satisfy. A sweep row with sample n > 1
// runs every n-th combination at each seed, offset by the seed, so any n
// consecutive seeds cover the whole cross.
type simRow struct {
	name   string
	seeds  int // build runs for seeds 0 … seeds−1, or once at 0
	sample int
	build  func(seed uint64) (*message.Set, []int, checkCfg)
	axes   axes
	expect func(t *testing.T, label string, res Result)
}

// TestSimEquivalences is checkSim's table: directed workloads and seeded
// fuzzWorkload sweeps, each crossed with the axes its row varies. CHANGES.md
// maps each differential test this table replaced onto its row.
func TestSimEquivalences(t *testing.T) {
	// Each input builds nine short-lived Sims, each with a fresh 295 KB
	// worm chunk, over a live heap of a few MB: at the default target the
	// collector ran every few inputs and took half the test's time.
	gc := debug.SetGCPercent(400)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	// Only the StepTo twins of a telemetry-false input run with no sink
	// (see checkSim), so only they take the probe skip at the occupancy
	// ceiling; once every row has run, some such input must have reached it.
	rows := simRows(t)
	var done, atCeiling atomic.Int32
	t.Cleanup(func() {
		if int(done.Load()) == len(rows) && atCeiling.Load() == 0 {
			t.Error("no input with telemetry off reached its occupancy ceiling B·d; the probe skip is untested")
		}
	})
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			for s := range uint64(max(row.seeds, 1)) {
				set, releases, base := row.build(s)
				if set == nil {
					continue
				}
				for j, cc := range row.axes.cross(base) {
					if row.sample > 1 && j%row.sample != int(s)%row.sample {
						continue
					}
					cc.label = fmt.Sprintf("%s #%d %v B=%d d=%d shared=%v restricted=%v drop=%v streak=%d check=%v telemetry=%v",
						row.name, s, cc.Arbitration, cc.VirtualChannels, cc.LaneDepth, cc.SharedPool,
						cc.RestrictedBandwidth, cc.DropOnDelay, cc.streak, cc.CheckInvariants, cc.telemetry)
					res := checkSim(t, set, releases, cc)
					if row.expect != nil {
						row.expect(t, cc.label, res)
					}
					if !cc.telemetry && res.MaxOccupied == cc.VirtualChannels*max(cc.LaneDepth, 1) {
						atCeiling.Add(1)
					}
				}
			}
			done.Add(1)
		})
	}
}

func simRows(t *testing.T) []simRow {
	pols, both := []Policy{ArbByID, ArbAge, ArbRandom}, []bool{false, true}
	// directed is a one-input row: the default park streak, a cut halfway
	// through the run.
	directed := func(set *message.Set, releases []int, cfg Config) func(uint64) (*message.Set, []int, checkCfg) {
		return func(uint64) (*message.Set, []int, checkCfg) {
			return set, releases, checkCfg{Config: cfg, cut: -1, shift: 5}
		}
	}
	// sweep draws fuzzWorkload inputs at seeds 1…, rigid or on the deep grid.
	sweep := func(deep bool) func(uint64) (*message.Set, []int, checkCfg) {
		return func(s uint64) (*message.Set, []int, checkCfg) {
			seed := s + 1
			set, releases := fuzzWorkload(seed, uint8(seed), 2+int(seed%31))
			cfg := Config{VirtualChannels: 1 + int(seed%3), Seed: seed, CheckInvariants: true}
			if deep {
				a := deepGrid[1+seed%5]
				cfg.LaneDepth, cfg.SharedPool = a.depth, a.shared
			}
			return set, releases, seeded(cfg, seed)
		}
	}
	// butterfly is n inputs' worth of random traffic, m messages of lengths
	// lo … lo+spread−1 released over [0, window), in fixed draw order.
	butterfly := func(seed uint64, n, m, lo, spread, window int) (*message.Set, []int) {
		r := rng.New(seed)
		bf := topology.NewButterfly(n)
		set := message.NewSet(bf.G)
		releases := make([]int, m)
		for i := range releases {
			src, dst := r.Intn(n), r.Intn(n)
			set.Add(bf.Input(src), bf.Output(dst), lo+r.Intn(spread), bf.Route(src, dst))
			releases[i] = r.Intn(window)
		}
		return set, releases
	}
	lock23, rel23 := butterfly(23, 8, 30, 3, 4, 40)
	lock29, rel29 := butterfly(29, 8, 30, 3, 4, 40)
	block, blockRel := restrictedBodyBlockSet()
	// The park-streak workload: a contended butterfly whose staggered waves
	// give blocked episodes of every length.
	streakSet := func(seed uint64) (*message.Set, []int) {
		set, releases := butterfly(seed, 16, 48, 2, 6, 1)
		for i := range releases {
			releases[i] = (i % 8) * 3
		}
		return set, releases
	}
	streak23, srel23 := streakSet(23)
	streak31, srel31 := streakSet(31)
	delivered := func(t *testing.T, label string, res Result) {
		if res.Deadlocked || res.Truncated || !res.AllDelivered() {
			t.Fatalf("%s: a butterfly run must deliver everything: %+v", label, res)
		}
	}

	return []simRow{
		{name: "sweep/rigid", seeds: 40, sample: 4, build: sweep(false), axes: axes{pol: pols, restricted: both, drop: both}},
		{name: "sweep/deep", seeds: 40, sample: 4, build: sweep(true), axes: axes{pol: pols, restricted: both, drop: both}},
		{name: "perm", seeds: 40, build: func(s uint64) (*message.Set, []int, checkCfg) {
			r := rng.New(s)
			bf := topology.NewButterfly(8)
			set := message.NewSet(bf.G)
			for range 1 + s%3 {
				for src, dst := range r.Perm(8) {
					set.Add(bf.Input(src), bf.Output(dst), 1+int(s%7), bf.Route(src, dst))
				}
			}
			return set, nil, seeded(Config{VirtualChannels: 1 + int(s%4), Seed: s, CheckInvariants: true}, s)
		}, expect: delivered},
		{name: "line", build: directed(lineSet(t, 40, 5, 7), nil, Config{Seed: 7, CheckInvariants: true}),
			axes: axes{b: []int{1, 2, 3}, restricted: both, pol: pols}},
		{name: "line/deep", build: directed(lineSet(t, 30, 5, 7), nil, Config{Seed: 11, CheckInvariants: true}),
			axes: axes{arch: deepGrid, b: []int{1, 2}, restricted: both, pol: pols}},
		{name: "waves", seeds: 20, sample: 4, build: func(s uint64) (*message.Set, []int, checkCfg) {
			set, releases := butterfly(11+s, 16, 24, 2, 6, 1)
			for i := range releases {
				releases[i] = (i % 6) * 4
			}
			return set, releases, checkCfg{Config: Config{VirtualChannels: 1 + int(s%3), CheckInvariants: true}, cut: -1, shift: 1 + int(s)}
		}, axes: axes{drop: both, restricted: both, pol: []Policy{ArbByID, ArbAge}}},
		{name: "deadlock", build: directed(deadlockSet(), nil, Config{Seed: 3, CheckInvariants: true}),
			axes: axes{b: []int{1, 2}, restricted: both, pol: pols}},
		{name: "deadlock/deep", build: directed(deadlockSet(), nil, Config{VirtualChannels: 1, Seed: 5, CheckInvariants: true}),
			axes: axes{arch: deepGrid, pol: pols},
			expect: func(t *testing.T, label string, res Result) {
				if !res.Deadlocked {
					t.Fatalf("%s: the cycle did not deadlock: %+v", label, res)
				}
			}},
		// Parked well before the freeze: the latecomer keeps the network
		// moving past the probation.
		{name: "deadlock/staggered", build: directed(deadlockSet(), []int{0, 12}, Config{VirtualChannels: 1, Arbitration: ArbAge, CheckInvariants: true})},
		{name: "body-block", build: directed(block, blockRel, Config{VirtualChannels: 2, RestrictedBandwidth: true, Seed: 3, CheckInvariants: true}),
			axes: axes{arch: deepGrid, pol: pols}},
		{name: "lockstep", build: directed(lock23, rel23, Config{VirtualChannels: 1, Seed: 5}),
			axes: axes{pol: pols, check: both}},
		{name: "lockstep/deep", build: directed(lock29, rel29, Config{VirtualChannels: 1, Seed: 5, CheckInvariants: true}),
			axes: axes{arch: deepGrid[1:], pol: pols}},
		{name: "streak", build: directed(streak23, srel23, Config{VirtualChannels: 1, Seed: 23, CheckInvariants: true}),
			axes: axes{streak: []int{1, 2, 1 << 30}, pol: pols, arch: []arch{{1, false}, {2, true}}, restricted: both}},
		{name: "streak/values", build: directed(streak31, srel31, Config{VirtualChannels: 2, Arbitration: ArbAge, CheckInvariants: true}),
			axes: axes{streak: []int{0, 1, 3, 8, 40, 1 << 30}}},
		// Rings, where one message's final edge is another's body edge: a
		// woken waiter can decline its slot on bandwidth even at cap == B.
		{name: "mixed-final", seeds: 40, sample: 3, build: func(s uint64) (*message.Set, []int, checkCfg) {
			seed := 100 + s
			set, releases := fuzzWorkload(seed, 2, 9)
			return set, releases, seeded(Config{VirtualChannels: 1, Seed: seed, CheckInvariants: true}, seed)
		}, axes: axes{streak: []int{1, 3, 8}, pol: pols}},
		{name: "stepto", seeds: 18, sample: 3, build: func(s uint64) (*message.Set, []int, checkCfg) {
			seed := 1 + s%6
			set, releases := fuzzWorkload(seed, uint8(s/6), 14)
			for i := range releases {
				releases[i] *= 17 // idle gaps for the twins to jump
			}
			cc := seeded(Config{VirtualChannels: 1 + int(seed%2), Seed: seed, CheckInvariants: true}, seed)
			cc.stride = 0
			return set, releases, cc
		}, axes: axes{arch: []arch{{1, false}, {2, false}, {2, true}}, pol: pols}},
		{name: "snapshot", seeds: 24, build: func(s uint64) (*message.Set, []int, checkCfg) {
			id, seed := int(s), 1000+s
			set, releases := fuzzWorkload(seed, uint8(id%3), 18)
			cc := seeded(Config{
				VirtualChannels: 1 + id%3, LaneDepth: 1 + id/2%2, SharedPool: id%2 == 1,
				RestrictedBandwidth: id%4 == 1, DropOnDelay: id%5 == 2, Arbitration: Policy(id / 8),
				Seed: seed, CheckInvariants: true,
			}, seed)
			cc.cut = id * 5 / 3 // 0 … 38; 0 is before the first release
			return set, releases, cc
		}},
		{name: "fault", seeds: 40, sample: 3, build: func(s uint64) (*message.Set, []int, checkCfg) {
			seed := 1 + s/2
			set, releases := fuzzWorkload(seed, uint8(seed), 10)
			faults := fault.Generate(fault.GenConfig{
				Seed: seed * 977, NumEdges: set.G.NumEdges(), Horizon: 120, Rate: 0.4, MeanOutage: 30, Lanes: int(s % 2),
			})
			if len(faults) == 0 {
				return nil, nil, checkCfg{}
			}
			return set, releases, seeded(Config{
				VirtualChannels: 2, Seed: seed, MaxSteps: 1 << 14, CheckInvariants: true, Faults: faults, Retry: faultRetryDefaults,
			}, seed)
		}, axes: axes{arch: []arch{{0, false}, {3, false}, {2, true}}, pol: pols}},
		// Cut one step after each of a schedule's first four kills, with the
		// outage still open.
		{name: "fault/outage", seeds: 8, build: func(s uint64) (*message.Set, []int, checkCfg) {
			set, releases := fuzzWorkload(11, 0, 10)
			cfg := Config{VirtualChannels: 2, Arbitration: ArbAge, Seed: 11, MaxSteps: 1 << 16, Retry: faultRetryDefaults}
			if s >= 4 {
				cfg.LaneDepth, cfg.SharedPool = 2, true
			}
			cfg.Faults = fault.Generate(fault.GenConfig{Seed: 1311, NumEdges: set.G.NumEdges(), Horizon: 60, Rate: 0.5, MeanOutage: 30})
			var kills []int
			for _, ev := range cfg.Faults {
				if ev.Kind == fault.KillEdge || ev.Kind == fault.KillLane {
					kills = append(kills, ev.Step)
				}
			}
			if int(s%4) >= len(kills) {
				return nil, nil, checkCfg{}
			}
			return set, releases, checkCfg{Config: cfg, cut: kills[s%4] + 1}
		}},
		// Cut at step 12: inside an outage, or a backoff with retries recorded
		// and nothing in flight.
		{name: "fault/scenario", seeds: len(faultScenarios), build: func(s uint64) (*message.Set, []int, checkCfg) {
			set, releases, cfg := faultScenario(faultScenarios[s].name)
			return set, releases, checkCfg{Config: cfg, cut: 12}
		}},
		// A header parked for its first edge's lane when that edge dies: the
		// naive scan retries it on the kill step, so the kill must wake it.
		{name: "fault/parked", build: func(uint64) (*message.Set, []int, checkCfg) {
			g := topology.NewLinearArray(4)
			path := message.ShortestPathRouter(g)(0, 3)
			set := message.NewSet(g)
			set.Add(0, 3, 30, path)
			set.Add(0, 3, 4, path)
			faults := fault.Schedule{{Step: 20, Edge: int(path[0]), Kind: fault.KillEdge}, {Step: 60, Edge: int(path[0]), Kind: fault.ReviveEdge}}
			return directed(set, []int{0, 0}, Config{VirtualChannels: 1, MaxSteps: 1 << 12, Faults: faults, Retry: faultRetryDefaults})(0)
		}, axes: axes{pol: pols, arch: []arch{{0, false}, {2, true}}, telemetry: both}},
	}
}
