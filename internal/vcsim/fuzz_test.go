package vcsim

// One checker for every simulator equivalence. checkSim runs one input — a
// (topology, schedule, Config) tuple plus the mechanism axes the public
// Config does not carry: the park streak, telemetry sinks, the snapshot cut,
// the StepTo strides and the release shift — through every way the
// simulator can execute it, and asserts seven properties:
//
//  1. model invariants hold at every step (flit conservation between the
//     worms' configurations and the per-edge credit accounting, occupancy
//     never above capacity) — enforced by Config.CheckInvariants, which
//     panics at the first bad step — and at the end: occupancy never above
//     B·d, no delivery faster than D+L−1;
//  2. the wakeup engine and the naive scan are byte-identical, their
//     Results compared after every single step, and charge every stall to
//     the same cause and the same edge;
//  3. a drained simulator leaks nothing: no worm left parked, no wait
//     queue entry, no buffer credit still held once every message is
//     delivered, dropped or aborted (deadlocks strand credits by design and
//     are exempted);
//  4. replay: the batch run, the Step-driven pair (a rigid one with
//     LaneDepth spelled 0 ↔ 1) and the StepTo twins, which run with
//     CheckInvariants flipped — the unchecked leg takes the elided
//     bandwidth metering (see Sim.crossings) — give deeply equal Results,
//     whatever the park streak and the telemetry sinks;
//  5. fast-forward equivalence: StepTo-driven twins on both steppers,
//     jumping a cycle of strides, match the Step-driven pair at every
//     aligned time, and the wakeup twin replays the workload once more after
//     Reset — so fast-forward never skips a step in which any worm could
//     move and Reset leaks nothing between runs. The pair and the
//     restorations always carry Metrics (property 2 compares their stall
//     attribution), so the twins of an input with telemetry false are the
//     only Sims here with no sink attached: the one place the step-end
//     occupancy probe stops once MaxOccupied reaches its ceiling
//     (Sim.probeOwed), and TestSimEquivalences fails unless some such input
//     reaches it;
//  6. checkpoint transparency: both engines are snapshotted at the cut and
//     restored, the restorations step in lockstep with the originals, equal
//     after every step, and end with byte-identical snapshots and stall
//     attribution;
//  7. release shift (ROADMAP 3(b)): every release k steps later shifts every
//     event time by exactly k and nothing else, on rigid and deep lanes alike.
//
// It has two callers: FuzzSimInvariants, over random tuples (CI runs it as a
// short -fuzztime smoke; `go test` replays its corpus), and
// TestSimEquivalences, over directed workloads and seeded sweeps.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
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

// checkCfg is one checker input's configuration: the public Config plus the
// axes only the harness sets.
type checkCfg struct {
	Config
	label     string // names the input in failure messages
	streak    int    // park streak set on every Sim; 0 keeps defaultParkStreak
	telemetry bool   // hang a Trace on the incremental Sims, Metrics on the twins
	cut       int    // snapshot step; a run that ends first is cut at its end, < 0 halfway
	stride    int    // where in strides the StepTo twins start
	shift     int    // property 7's k; 0 skips it
}

// seeded derives the harness axes of cfg from seed.
func seeded(cfg Config, seed uint64) checkCfg {
	return checkCfg{Config: cfg, streak: 1 + int(seed%11), telemetry: seed%2 == 1,
		cut: 1 + int(seed%29), stride: int(seed % 7), shift: 1 + int(seed>>3%997)}
}

// strides is the StepTo twins' jump cycle: tiny targets that land on real
// steps and long ones that cross idle gaps.
var strides = []int{1, 2, 7, 3, 1, 31, 5}

// simPair is a wakeup Sim and its NaiveScan twin over one network, fed the
// same messages and stepped side by side; each carries its own Metrics so
// stall attribution can be compared as well as Results.
type simPair struct {
	wake, naive *Sim
	last        Result // both engines' Result after the last step
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
// it returns the step's error, nil while the run can continue.
func (p *simPair) step(t *testing.T, label string) error {
	t.Helper()
	errW, errN := p.wake.Step(), p.naive.Step()
	if (errW == nil) != (errN == nil) {
		t.Fatalf("%s step %d: error mismatch: wakeup %v, naive %v", label, p.wake.Now(), errW, errN)
	}
	p.last = p.wake.Result()
	if rn := p.naive.Result(); !sameResult(p.last, rn) {
		t.Fatalf("%s step %d: snapshots differ\nwakeup: %+v\n naive: %+v", label, p.wake.Now(), p.last, rn)
	}
	return errW
}

// drain steps the pair in lockstep until nothing is in flight.
func (p *simPair) drain(t *testing.T, label string) {
	t.Helper()
	for p.wake.Active() > 0 && p.step(t, label) == nil {
	}
}

// requireSameStalls fails unless both engines charged every stall to the
// same cause and the same edge. Call it once the run is over, when every
// parked span has been stamped.
func (p *simPair) requireSameStalls(t *testing.T, label string) {
	t.Helper()
	sameStalls(t, label, p.wake, p.naive)
}

func sameStalls(t *testing.T, label string, a, b *Sim) {
	t.Helper()
	sa, sb := a.met.Snapshot(), b.met.Snapshot()
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		if name := c.Name(); strings.HasPrefix(name, "stall_") && sa.Counter(name) != sb.Counter(name) {
			t.Errorf("%s: %s = %d under %s, %d under %s", label, name, sa.Counter(name), a.engine(), sb.Counter(name), b.engine())
		}
	}
	if !reflect.DeepEqual(sa.EdgeStalls, sb.EdgeStalls) {
		t.Errorf("%s: per-edge stall attribution differs\n%s: %v\n%s: %v", label, a.engine(), sa.EdgeStalls, b.engine(), sb.EdgeStalls)
	}
}

// sameResult is reflect.DeepEqual for the per-step comparisons at a
// fraction of its cost (nil and empty slices compare equal); the final
// comparisons keep DeepEqual, so a field added to Result is never skipped.
func sameResult(a, b Result) bool {
	return a.Steps == b.Steps && a.Delivered == b.Delivered && a.Dropped == b.Dropped &&
		a.Aborted == b.Aborted && a.Deadlocked == b.Deadlocked && a.FaultDeadlocked == b.FaultDeadlocked &&
		a.Truncated == b.Truncated && a.TotalStalls == b.TotalStalls && a.FlitHops == b.FlitHops &&
		a.MaxOccupied == b.MaxOccupied && slices.Equal(a.PerMessage, b.PerMessage) && slices.Equal(a.BlockedIDs, b.BlockedIDs)
}

func (si *Sim) engine() string {
	if si.naive {
		return "naive"
	}
	return "wakeup"
}

// restore snapshots both engines and returns their restorations, each with
// a fresh registry the snapshot's counters land in.
func (p *simPair) restore(t *testing.T, g *graph.Graph) []*Sim {
	t.Helper()
	out := make([]*Sim, 2)
	for i, si := range []*Sim{p.wake, p.naive} {
		var blob bytes.Buffer
		if err := si.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		cfg := si.cfg
		cfg.Metrics = telemetry.NewMetrics()
		r, err := RestoreSim(g, cfg, &blob)
		if err != nil {
			t.Fatalf("restore at step %d: %v", si.Now(), err)
		}
		out[i] = r
	}
	return out
}

// wire is si's snapshot without its telemetry section: a restored registry
// resumes the snapshot's counters, but samples its own arena.
func wire(t *testing.T, si *Sim) []byte {
	t.Helper()
	met := si.met
	defer func() { si.met = met }()
	si.met = nil
	var b bytes.Buffer
	if err := si.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkSim asserts the seven properties above on one input and returns its
// batch Result.
func checkSim(t *testing.T, set *message.Set, releases []int, cc checkCfg) Result {
	t.Helper()
	cfg, m := cc.Config, set.Len()
	if releases == nil {
		releases = make([]int, m)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", cc.label, fmt.Sprintf(format, args...))
	}
	batch := newBatchSim(set, releases, cfg)
	batch.Drain()
	want := batch.Result()

	// The incremental Sims run to the batch run's horizon, so a truncated
	// run compares too: the Step-driven pair, a rigid one with LaneDepth
	// spelled the other way, and the StepTo twins, with CheckInvariants
	// flipped (property 4).
	inc := cfg
	inc.MaxSteps = batch.maxSteps
	if !cfg.SharedPool && cfg.LaneDepth <= 1 {
		inc.LaneDepth = 1 - cfg.LaneDepth
	}
	if cc.telemetry {
		inc.Trace = telemetry.NewTrace(256)
	}
	p := newSimPair(t, set.G, inc)
	var twins [2]*Sim
	for i := range twins {
		c := inc
		c.NaiveScan, c.CheckInvariants = i == 1, !cfg.CheckInvariants
		if cc.telemetry {
			c.Metrics = telemetry.NewMetrics()
		}
		var err error
		if twins[i], err = NewSim(set.G, c); err != nil {
			t.Fatal(err)
		}
	}
	load := func(si *Sim, releases []int) {
		for i := range m {
			if _, err := si.Inject(set.Get(message.ID(i)), releases[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, si := range []*Sim{p.wake, p.naive, twins[0], twins[1]} {
		if cc.streak > 0 {
			si.parkStreak = int32(cc.streak)
		}
		load(si, releases)
	}
	// stepTo jumps si by the next stride, but not past the horizon until si
	// stands on it: idle steps beyond a finished run would truncate it.
	next, errs := cc.stride, [2]error{}
	stepTo := func(si *Sim) error {
		t := min(si.Now()+strides[next%len(strides)], si.maxSteps)
		if si.Now() == si.maxSteps {
			t = si.Now() + 1
		}
		return si.StepTo(t)
	}
	jump := func() {
		for i, tw := range twins {
			errs[i] = stepTo(tw)
		}
		next++
	}
	cut := cc.cut
	if cut < 0 {
		cut = want.Steps / 2
	}

	// Properties 2, 5 and 6, a step at a time.
	var restored []*Sim // wakeup, naive
	jump()
	for running := true; ; {
		if restored == nil && (p.wake.Now() >= cut || !running) {
			restored = p.restore(t, set.G)
		}
		if !running {
			break
		}
		err := p.step(t, cc.label)
		running = err == nil && p.wake.Active() > 0
		for _, r := range restored {
			if errR := r.Step(); (errR == nil) != (err == nil) {
				fail("step %d: %s error %v, restored %v", p.wake.Now(), r.engine(), err, errR)
			}
			if got := r.Result(); !sameResult(got, p.last) {
				fail("step %d: restored %s run diverged\noriginal: %+v\nrestored: %+v", p.wake.Now(), r.engine(), p.last, got)
			}
		}
		if running && (twins[0].Now() != p.wake.Now() || errs[0] != nil) {
			continue
		}
		for i, tw := range twins {
			if (errs[i] == nil) != (err == nil) || err != nil && (!errors.Is(err, errs[i]) || tw.Now() != p.wake.Now()) {
				fail("%s StepTo twin at %d (%v), Step at %d (%v)", tw.engine(), tw.Now(), errs[i], p.wake.Now(), err)
			}
			if got := tw.Result(); !sameResult(got, p.last) {
				fail("step %d: %s StepTo twin diverged\n step: %+v\n jump: %+v", p.wake.Now(), tw.engine(), p.last, got)
			}
		}
		if running {
			jump()
		}
	}
	if got := p.wake.Result(); !reflect.DeepEqual(want, got) {
		fail("incremental run diverged from batch\n      batch: %+v\nincremental: %+v", want, got)
	}
	p.requireSameStalls(t, cc.label)
	sameStalls(t, cc.label+" (restored)", restored[0], restored[1])
	for i, si := range []*Sim{p.wake, p.naive} {
		sameStalls(t, cc.label+" (original vs restored)", si, restored[i])
		if !bytes.Equal(wire(t, si), wire(t, restored[i])) {
			fail("%s: end-of-run snapshots differ between the original and its restoration", si.engine())
		}
	}
	tw := twins[0]
	tw.Reset()
	load(tw, releases)
	for ; tw.Active() > 0 && stepTo(tw) == nil; next++ {
	}
	if got := tw.Result(); !reflect.DeepEqual(want, got) {
		fail("replay after Reset diverged\nbatch: %+v\nreset: %+v", want, got)
	}

	// Properties 1 and 3 at the end of the run.
	if occ := want.MaxOccupied; occ > cfg.VirtualChannels*max(cfg.LaneDepth, 1) {
		fail("occupancy %d above B·d", occ)
	}
	for i, st := range want.PerMessage {
		msg := set.Get(message.ID(i))
		if d := len(msg.Path); d > 0 && st.Status == StatusDelivered && st.Latency() < d+msg.Length-1 {
			fail("message %d delivered in %d steps, below D+L−1 = %d", i, st.Latency(), d+msg.Length-1)
		}
	}
	wake := p.wake
	if wake.parked != 0 || len(wake.wokenScratch) != 0 {
		fail("drained sim still has %d parked worms, %d woken-scratch entries", wake.parked, len(wake.wokenScratch))
	}
	for e, slot := range wake.waits.slot {
		for k := int32(0); slot != 0 && k < wake.waits.kinds; k++ {
			if q := *wake.waits.at(slot, k); len(q) != 0 {
				fail("drained sim leaks %d wait-queue entries on edge %d", len(q), e)
			}
		}
	}
	if !want.Deadlocked && !want.Truncated {
		if n := want.Delivered + want.Dropped + want.Aborted; n != m {
			fail("conservation: %d delivered, dropped or aborted of %d messages", n, m)
		}
		for e := range wake.edges {
			if used := wake.lanesInUse(e); used != 0 {
				fail("edge %d still holds %d lanes after completion", e, used)
			}
		}
		for e := range wake.flitFree {
			if used := wake.flitsInUse(e); used != 0 {
				fail("edge %d still holds %d flit credits after completion", e, used)
			}
		}
	}

	// Property 7, a relation no mode of the engine states about itself:
	// every release k steps later moves every inject, deliver and drop
	// time — and the run's last step — by exactly k and changes no status,
	// stall count or arbitration outcome (which worms a deadlock froze), on
	// this input's engine and on the other one: rigid lanes go deep, deep
	// lanes go rigid. A fault schedule and an explicit horizon are absolute
	// times, so those inputs skip it.
	if cc.shift == 0 || cfg.Faults != nil || cfg.MaxSteps != 0 {
		return want
	}
	k := cc.shift
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
	// Each engine runs both release lists through one Sim, whose explicit
	// horizon never binds (a derived one cannot either).
	for _, c := range []Config{cfg, other} {
		c.MaxSteps = MaxHorizon
		o, err := NewSim(set.G, c)
		if err != nil {
			t.Fatal(err)
		}
		load(o, releases)
		o.Drain()
		base := o.Result()
		o.Reset()
		load(o, shifted)
		o.Drain()
		if got, w := o.Result(), shiftResult(base, k); !reflect.DeepEqual(got, w) {
			fail("LaneDepth %d shared %v: releases shifted by %d did not shift the result by %d\nwant: %+v\n got: %+v",
				c.LaneDepth, c.SharedPool, k, k, w, got)
		}
	}
	return want
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
		set, releases := fuzzWorkload(seed, topoSel, 1+int(msgs)%32)
		checkSim(t, set, releases, seeded(Config{
			VirtualChannels:     1 + int(b)%4,
			LaneDepth:           1 + int(depth)%4,
			SharedPool:          shared,
			RestrictedBandwidth: restricted,
			DropOnDelay:         drop,
			Arbitration:         Policy(pol % 3),
			Seed:                seed,
			CheckInvariants:     true,
		}, seed))
	})
}

// TestMixedFinalFlipFlushesParked pins the incremental-mode corner of the
// mixed-role wake bug (the fuzz harness found it: on rings and meshes one
// message's final edge is another's body edge, and a woken worm can decline
// its slot on bandwidth even when cap == B): a streaming Inject can deliver
// the first mixed-role path *after* worms have parked under the free-slot-
// count rule. The flip must flush every parked worm (their park decisions
// assumed declines were impossible) and downgrade later wakes — verified
// by lockstep snapshot comparison against the naive scan across the flip.
func TestMixedFinalFlipFlushesParked(t *testing.T) {
	g := topology.NewLinearArray(7)
	route := message.ShortestPathRouter(g)
	long := message.Message{Src: 0, Dst: 6, Length: 5, Path: route(0, 6)}
	// Final edge e4 of this message is a body edge of `long`: the flip.
	flip := message.Message{Src: 0, Dst: 5, Length: 2, Path: route(0, 5)}
	for _, pol := range []Policy{ArbByID, ArbAge, ArbRandom} {
		p := newSimPair(t, g, Config{VirtualChannels: 1, Arbitration: pol, Seed: 9, MaxSteps: 4096, CheckInvariants: true})
		for range 10 {
			p.inject(t, long, 0)
		}
		// Let the backlog park (probation is 8 steps), then flip mid-run.
		for range 30 {
			p.step(t, pol.String())
		}
		if p.wake.mixedFinal {
			t.Fatal("classification mixed before the flip message")
		}
		if pol != ArbRandom && p.wake.parked == 0 {
			t.Fatal("fixture never parked a worm; the flush path is untested")
		}
		p.inject(t, flip, p.wake.Now())
		if !p.wake.mixedFinal {
			t.Fatal("flip message did not mix the classification")
		}
		if p.wake.parked != 0 {
			t.Fatalf("%d worms still parked after the flip flush", p.wake.parked)
		}
		p.drain(t, pol.String()+" after the flip")
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
			if r.waiters != 0 && laneQueued(si, e) == 0 {
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
			p := newSimPair(t, cycle.G, cfg)
			p.wake.parkStreak = 1 // park on the first failure, so the freeze finds parked worms
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
				if r.waiters != 0 || laneQueued(p.wake, e) != 0 {
					t.Fatalf("edge %d after Reset: waiters %d, %d queued", e, r.waiters, laneQueued(p.wake, e))
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

// laneQueued is the length of edge e's lane wait queue.
func laneQueued(si *Sim, e int) int {
	if q := si.waits.find(int32(e), 0); q != nil {
		return len(*q)
	}
	return 0
}
