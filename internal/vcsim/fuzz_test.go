package vcsim

// Native Go fuzz harness over the simulator's whole configuration space:
// random (topology, schedule, Config) tuples — including the buffer-
// architecture axes — executed under both steppers with per-step
// invariant checking. Seven properties are asserted on every input:
//
//  1. model invariants hold at every step (flit conservation between the
//     worms' configurations and the per-edge credit accounting, occupancy
//     never above capacity) — enforced by Config.CheckInvariants, which
//     panics at the first bad step;
//  2. the wakeup engine and the naive scan are byte-identical;
//  3. a drained simulator leaks nothing: no worm left parked, no wait
//     queue entry, no buffer credit still held once every message is
//     delivered or dropped (deadlocks strand credits by design and are
//     exempted);
//  4. replay determinism: the same input run twice gives deeply equal
//     Results — the second time without CheckInvariants, i.e. on the
//     elided bandwidth-metering path the checked run proved sound;
//  5. fast-forward equivalence: replaying the workload through an
//     incremental Sim driven by StepTo jumps — and once more through the
//     same Sim after Reset — reproduces the batch Result exactly, so
//     fast-forward never skips a step in which any worm could move and
//     Reset leaks nothing between runs;
//  6. checkpoint transparency: a snapshot/restore cut mid-run changes
//     nothing;
//  7. release shift: every release k steps later shifts every event time
//     by exactly k and nothing else, on rigid and deep lanes alike.
//
// CI runs this as a short -fuzztime smoke on every push; `go test` always
// replays the seed corpus below.

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"wormhole/internal/deadlock"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
)

// fuzzWorkload decodes (seed, topoSel, msgs) into a message set with
// staggered releases on one of three topology families: the butterfly
// (DAG, deadlock-free), a contended linear array, and a unidirectional
// ring (deadlock-prone at low B — the terminal path gets fuzzed too).
func fuzzWorkload(seed uint64, topoSel uint8, msgs int) (*message.Set, []int) {
	r := rng.New(seed)
	var set *message.Set
	switch topoSel % 3 {
	case 0:
		bf := topology.NewButterfly(8)
		set = message.NewSet(bf.G)
		for i := 0; i < msgs; i++ {
			src, dst := r.Intn(8), r.Intn(8)
			set.Add(bf.Input(src), bf.Output(dst), 1+r.Intn(8), bf.Route(src, dst))
		}
	case 1:
		g := topology.NewLinearArray(7)
		set = message.NewSet(g)
		route := message.ShortestPathRouter(g)
		for i := 0; i < msgs; i++ {
			src := graph.NodeID(r.Intn(6))
			dst := src + graph.NodeID(1+r.Intn(6-int(src)))
			set.Add(src, dst, 1+r.Intn(8), route(src, dst))
		}
	default:
		ring := deadlock.NewRing(6, 1)
		set = message.NewSet(ring.G)
		for i := 0; i < msgs; i++ {
			src := r.Intn(6)
			dst := (src + 1 + r.Intn(5)) % 6
			set.Add(graph.NodeID(src), graph.NodeID(dst), 1+r.Intn(6), ring.Route(src, dst))
		}
	}
	releases := make([]int, msgs)
	for i := range releases {
		releases[i] = r.Intn(24)
	}
	return set, releases
}

// TestWakeupMixedFinalBodyDecline is the directed regression for a bug
// this fuzz harness found: on networks where one message's *final* edge
// is another message's *body* edge (rings, meshes — never the butterfly,
// whose output edges are final for every path through them), a
// final-edge crossing consumes bandwidth without holding a buffer slot.
// A woken top-priority waiter can then decline its freed slot by failing
// bandwidth on a body edge even when cap == B — the case the free-slot-
// count wake rule assumed impossible — while the naive scan advances a
// lower-priority waiter the wakeup engine never woke. The fix classifies
// edges by role and falls back to whole-queue wakes the moment any edge
// is used in both roles.
func TestWakeupMixedFinalBodyDecline(t *testing.T) {
	for seed := uint64(100); seed < 140; seed++ {
		set, releases := fuzzWorkload(seed, 2, 9)
		for _, ps := range []int{1, 3, 8} {
			for _, pol := range []Policy{ArbByID, ArbAge, ArbRandom} {
				runBoth(t, pol.String(), set, releases, Config{
					VirtualChannels: 1,
					Arbitration:     pol,
					Seed:            seed,
					ParkStreak:      ps,
					CheckInvariants: true,
				})
			}
		}
	}
}

// TestMixedFinalFlipFlushesParked pins the incremental-mode corner of the
// same bug: a streaming Inject can deliver the first mixed-role path
// *after* worms have parked under the free-slot-count rule. The flip must
// flush every parked worm (their park decisions assumed declines were
// impossible) and downgrade later wakes — verified by lockstep snapshot
// comparison against the naive scan across the flip.
func TestMixedFinalFlipFlushesParked(t *testing.T) {
	g := topology.NewLinearArray(7)
	route := message.ShortestPathRouter(g)
	long := message.Message{Src: 0, Dst: 6, Length: 5, Path: route(0, 6)}
	// Final edge e4 of this message is a body edge of `long`: the flip.
	flip := message.Message{Src: 0, Dst: 5, Length: 2, Path: route(0, 5)}
	for _, pol := range []Policy{ArbByID, ArbAge, ArbRandom} {
		cfg := Config{VirtualChannels: 1, Arbitration: pol, Seed: 9, MaxSteps: 4096, CheckInvariants: true}
		naiveCfg := cfg
		naiveCfg.NaiveScan = true
		wake, err := NewSim(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NewSim(g, naiveCfg)
		if err != nil {
			t.Fatal(err)
		}
		inject := func(m message.Message, rel int) {
			t.Helper()
			if _, err := wake.Inject(m, rel); err != nil {
				t.Fatal(err)
			}
			if _, err := naive.Inject(m, rel); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			inject(long, 0)
		}
		// Let the backlog park (probation is 8 steps), then flip mid-run.
		for step := 0; step < 30; step++ {
			if err := wake.Step(); err != nil {
				t.Fatal(err)
			}
			if err := naive.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if wake.mixedFinal {
			t.Fatal("classification mixed before the flip message")
		}
		if pol != ArbRandom && wake.parked == 0 {
			t.Fatal("fixture never parked a worm; the flush path is untested")
		}
		inject(flip, wake.Now())
		if !wake.mixedFinal {
			t.Fatal("flip message did not mix the classification")
		}
		if wake.parked != 0 {
			t.Fatalf("%d worms still parked after the flip flush", wake.parked)
		}
		for wake.Active() > 0 {
			errW := wake.Step()
			errN := naive.Step()
			if (errW == nil) != (errN == nil) {
				t.Fatalf("%s: error mismatch: wakeup %v, naive %v", pol, errW, errN)
			}
			rw, rn := wake.Result(), naive.Result()
			if !reflect.DeepEqual(rw, rn) {
				t.Fatalf("%s: snapshots differ after flip\nwakeup: %+v\n naive: %+v", pol, rw, rn)
			}
			if errW != nil {
				break
			}
		}
	}
}

// TestStaleWaitersBit covers the three ways an edge's waiters bit (see
// edgeRec) parts company with its wait queues: flushParked and deadlock
// stamping empty the queues without visiting the records, leaving the bit
// set over nothing, and Reset drops queues and bits together under worms
// that were still parked. In each case the run that follows must match the
// naive scan — Result and per-message stats every step, stall counters at
// the end — with CheckInvariants asserting "parked ⇒ bit set" throughout.
func TestStaleWaitersBit(t *testing.T) {
	line := topology.NewLinearArray(7)
	route := message.ShortestPathRouter(line)
	long := message.Message{Src: 0, Dst: 6, Length: 5, Path: route(0, 6)}
	flip := message.Message{Src: 0, Dst: 5, Length: 2, Path: route(0, 5)}
	cycle := deadlockSet()

	// staleBits counts edges whose bit is set over empty queues.
	staleBits := func(si *Sim) (n int) {
		for e, r := range si.edges {
			if r.waiters != 0 && len(si.waitQ[e]) == 0 {
				n++
			}
		}
		return n
	}
	// backlog parks most of ten long worms behind one lane.
	backlog := func(t *testing.T, p *simPair, label string) {
		t.Helper()
		for i := 0; i < 10; i++ {
			p.inject(t, long, p.wake.Now())
		}
		for i := 0; i < 30; i++ {
			p.step(t, label)
		}
		if p.wake.parked == 0 {
			t.Fatalf("%s: fixture never parked a worm", label)
		}
	}
	// reset starts both engines over, registries included: a worm dropped
	// while parked takes its unstamped stall span with it.
	reset := func(p *simPair) {
		for _, si := range []*Sim{p.wake, p.naive} {
			si.Reset()
			*si.met = telemetry.Metrics{}
			si.met.EnsureEdges(len(si.edges))
		}
	}

	for _, pol := range []Policy{ArbByID, ArbAge} {
		cfg := Config{VirtualChannels: 1, Arbitration: pol, MaxSteps: 4096, CheckInvariants: true}

		t.Run(pol.String()+"/flush", func(t *testing.T) {
			p := newSimPair(t, line, cfg)
			backlog(t, p, "flush")
			p.inject(t, flip, p.wake.Now()) // mixes the roles: flushParked
			if p.wake.parked != 0 || staleBits(p.wake) == 0 {
				t.Fatalf("after the flush: %d parked, %d stale bits; want 0 and > 0", p.wake.parked, staleBits(p.wake))
			}
			p.drain(t, "flush")
			p.requireSameStalls(t, "flush")
			if n := staleBits(p.wake); n != 0 {
				t.Errorf("%d bits still set over empty queues after the drain folded every edge", n)
			}
		})

		t.Run(pol.String()+"/deadlock", func(t *testing.T) {
			dcfg := cfg
			dcfg.ParkStreak = 1 // park on the first failure, so the freeze finds parked worms
			p := newSimPair(t, cycle.G, dcfg)
			for i := 0; i < cycle.Len(); i++ {
				p.inject(t, cycle.Get(message.ID(i)), 0)
			}
			p.drain(t, "deadlock")
			if !p.wake.Deadlocked() || staleBits(p.wake) == 0 {
				t.Fatalf("deadlocked %v with %d stale bits; want true and > 0", p.wake.Deadlocked(), staleBits(p.wake))
			}
			// The next run over the same Sim: one of the two worms alone.
			reset(p)
			p.inject(t, cycle.Get(0), 0)
			p.drain(t, "after deadlock")
			p.requireSameStalls(t, "after deadlock")
			if res := p.wake.Result(); !res.AllDelivered() {
				t.Errorf("run after the deadlock did not deliver: %+v", res)
			}
		})

		t.Run(pol.String()+"/reset", func(t *testing.T) {
			p := newSimPair(t, line, cfg)
			backlog(t, p, "before reset")
			reset(p)
			for e, r := range p.wake.edges {
				if r.waiters != 0 || len(p.wake.waitQ[e]) != 0 {
					t.Fatalf("edge %d after Reset: waiters %d, %d queued", e, r.waiters, len(p.wake.waitQ[e]))
				}
			}
			backlog(t, p, "after reset")
			p.drain(t, "after reset")
			p.requireSameStalls(t, "after reset")
			if res := p.wake.Result(); !res.AllDelivered() {
				t.Errorf("run after Reset did not deliver: %+v", res)
			}
		})
	}
}

func FuzzSimInvariants(f *testing.F) {
	// Seed corpus: one entry per topology family crossed with the
	// interesting config corners (deep lanes, shared pool, restricted
	// bandwidth, drop-on-delay, every policy).
	f.Add(uint64(1), uint8(0), uint8(12), uint8(1), uint8(1), false, false, false, uint8(0))
	f.Add(uint64(2), uint8(0), uint8(20), uint8(2), uint8(2), false, true, false, uint8(1))
	f.Add(uint64(3), uint8(1), uint8(16), uint8(1), uint8(3), true, false, false, uint8(2))
	f.Add(uint64(4), uint8(1), uint8(24), uint8(3), uint8(1), true, true, true, uint8(0))
	f.Add(uint64(5), uint8(2), uint8(8), uint8(1), uint8(2), false, false, false, uint8(2))
	f.Add(uint64(6), uint8(2), uint8(10), uint8(2), uint8(4), true, true, false, uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, topoSel, msgs, b, depth uint8, shared, restricted, drop bool, pol uint8) {
		m := 1 + int(msgs)%32
		set, releases := fuzzWorkload(seed, topoSel, m)
		cfg := Config{
			VirtualChannels:     1 + int(b)%4,
			LaneDepth:           1 + int(depth)%4,
			SharedPool:          shared,
			RestrictedBandwidth: restricted,
			DropOnDelay:         drop,
			Arbitration:         Policy(pol % 3),
			Seed:                seed,
			ParkStreak:          1 + int(seed%11),
			CheckInvariants:     true, // property 1: per-step invariants
		}

		// Property 2: wakeup ≡ naive, with internals inspectable.
		wake := newBatchSim(set, releases, cfg)
		wake.Drain()
		wakeRes := wake.Result()
		naiveCfg := cfg
		naiveCfg.NaiveScan = true
		naiveRes := Run(set, releases, naiveCfg)
		if !reflect.DeepEqual(wakeRes, naiveRes) {
			t.Fatalf("wakeup and naive results differ\nwakeup: %+v\n naive: %+v", wakeRes, naiveRes)
		}

		// Property 3: nothing leaks after a drain. A deadlocked network
		// strands worms and credits by definition; everything else must
		// come back to zero.
		if wake.parked != 0 {
			t.Fatalf("drained sim still has %d parked worms", wake.parked)
		}
		for e, q := range wake.waitQ {
			if len(q) != 0 {
				t.Fatalf("drained sim leaks %d wait-queue entries on edge %d", len(q), e)
			}
		}
		for e, q := range wake.waitQFlit {
			if len(q) != 0 {
				t.Fatalf("drained sim leaks %d flit-wait-queue entries on edge %d", len(q), e)
			}
		}
		if len(wake.wokenScratch) != 0 {
			t.Fatalf("drained sim leaks %d woken-scratch entries", len(wake.wokenScratch))
		}
		if !wakeRes.Deadlocked && !wakeRes.Truncated {
			if wakeRes.Delivered+wakeRes.Dropped != m {
				t.Fatalf("conservation: %d delivered + %d dropped ≠ %d messages",
					wakeRes.Delivered, wakeRes.Dropped, m)
			}
			for e := range wake.edges {
				if used := wake.lanesInUse(e); used != 0 {
					t.Fatalf("edge %d still holds %d lanes after completion", e, used)
				}
			}
			for e := range wake.flitFree {
				if used := wake.flitsInUse(e); used != 0 {
					t.Fatalf("edge %d still holds %d flit credits after completion", e, used)
				}
			}
		}

		// Property 4: replay determinism — replayed with CheckInvariants
		// off, so the second run takes the elided bandwidth metering (see
		// Sim.crossings) that the checked first run just proved sound.
		plain := cfg
		plain.CheckInvariants = false
		if again := Run(set, releases, plain); !reflect.DeepEqual(wakeRes, again) {
			t.Fatalf("replay diverged\nfirst: %+v\nsecond: %+v", wakeRes, again)
		}

		// Property 5: fast-forward equivalence and Reset hygiene. The
		// same workload streams through one incremental Sim twice —
		// StepTo-jumped, then Reset and replayed — and must match the
		// batch result both times (modulo the horizon: the batch bound is
		// workload-derived, so truncated runs are skipped).
		if !wakeRes.Truncated {
			ffCfg := cfg
			ffCfg.MaxSteps = 1 << 20
			ff, err := NewSim(set.G, ffCfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				for i := 0; i < set.Len(); i++ {
					if _, err := ff.Inject(set.Get(message.ID(i)), releases[i]); err != nil {
						t.Fatal(err)
					}
				}
				stride := 1 + int(seed%7)
				for ff.Active() > 0 {
					if err := ff.StepTo(ff.Now() + stride); err != nil {
						break
					}
				}
				ffRes := ff.Result()
				if !reflect.DeepEqual(wakeRes, ffRes) {
					t.Fatalf("round %d: fast-forward replay diverged from batch\nbatch: %+v\n   ff: %+v", round, wakeRes, ffRes)
				}
				ff.Reset()
			}
		}

		// Property 6: checkpoint transparency. The workload replayed
		// through a Sim that is snapshotted at a fuzzed mid-run step and
		// restored must still match the batch result exactly.
		if !wakeRes.Truncated {
			cpCfg := cfg
			cpCfg.MaxSteps = 1 << 20
			cp, err := NewSim(set.G, cpCfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < set.Len(); i++ {
				if _, err := cp.Inject(set.Get(message.ID(i)), releases[i]); err != nil {
					t.Fatal(err)
				}
			}
			snapStep := 1 + int(seed%29)
			for cp.Now() < snapStep && cp.Active() > 0 {
				if cp.Step() != nil {
					break
				}
			}
			var blob bytes.Buffer
			if err := cp.Snapshot(&blob); err != nil {
				t.Fatal(err)
			}
			rc, err := RestoreSim(set.G, cpCfg, bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for rc.Active() > 0 {
				if rc.Step() != nil {
					break
				}
			}
			if rcRes := rc.Result(); !reflect.DeepEqual(wakeRes, rcRes) {
				t.Fatalf("checkpoint/restore replay diverged from batch\n   batch: %+v\nrestored: %+v", wakeRes, rcRes)
			}
		}

		// Property 7: release shift (ROADMAP 4(b)), a relation no mode of
		// the engine states about itself. Every release k steps later moves
		// every inject, deliver and drop time — and the run's last step — by
		// exactly k and changes no status, stall count or arbitration
		// outcome (which worms a deadlock froze), on this input's engine and
		// on the other one: rigid lanes go deep, deep lanes go rigid.
		k := 1 + int(seed>>3%997)
		shifted := make([]int, m)
		for i, rel := range releases {
			shifted[i] = rel + k
		}
		other := cfg
		if other.LaneDepth > 1 || other.SharedPool {
			other.LaneDepth, other.SharedPool = 1, false
		} else {
			other.LaneDepth = 2
		}
		for _, c := range []struct {
			cfg  Config
			base Result
		}{{cfg, wakeRes}, {other, Run(set, releases, other)}} {
			if got, want := Run(set, shifted, c.cfg), shiftResult(c.base, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("LaneDepth %d shared %v: releases shifted by %d did not shift the result by %d\nwant: %+v\n got: %+v",
					c.cfg.LaneDepth, c.cfg.SharedPool, k, k, want, got)
			}
		}
	})
}

// shiftResult is r as it reads when every event happened k steps later:
// releases, inject/deliver/drop times that happened (-1 stays -1) and the
// last step move; counts, statuses, stalls and blocked sets do not.
func shiftResult(r Result, k int) Result {
	r.Steps += k
	r.PerMessage = slices.Clone(r.PerMessage)
	for i := range r.PerMessage {
		m := &r.PerMessage[i]
		m.Release += k
		for _, t := range []*int{&m.InjectTime, &m.DeliverTime, &m.DropTime} {
			if *t >= 0 {
				*t += k
			}
		}
	}
	return r
}
