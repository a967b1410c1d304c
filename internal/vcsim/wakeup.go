package vcsim

// This file is the event-driven stepper: the default engine since the
// blocked-worm wakeup refactor. The naive scan (stepNaive in vcsim.go)
// re-attempts every active worm every step, which makes the saturated
// regime — the interesting one for virtual-channel studies — pay for the
// whole backlog on every step: the more worms are slot-blocked, the more
// futile tryAdvance calls each step performs. The wakeup engine instead
// parks a slot-blocked worm on the wait list of the full edge and skips
// it until that edge sees a slot event (grant or release), the only
// events that can change the verdict:
//
//   - free lane credit only rises when a release on e folds in at a
//     step end, and
//   - a within-step grant on e (which could consume headroom ahead of a
//     later-ordered contender) requires laneFree > 0 on e, so once e is
//     full — which it is from the parking step onward, unless the
//     parking step itself saw a grant or release — no further grant can
//     occur before a release.
//
// Hence a parked worm would have failed, with no side effects, on every
// step it sits on the wait list, and the first slot event on its edge is
// the earliest step after which the verdict can differ. Body-flit
// crossings move no credit state, so a queue of parked worms is *not*
// re-scanned while a worm transits its edge. Bandwidth blocks (the
// RestrictedBandwidth model's per-step crossing cap) are transient —
// crossing capacity resets every step — so a bandwidth-blocked worm is
// never parked; it stays in the active list and retries, exactly like
// the naive scan.
//
// Stall accounting turns lazy under parking: a parked worm is charged
// one stall for every step in its parked span, stamped in bulk at
// wake/deadlock/snapshot time. Every observable — MessageStats,
// arbitration order, deadlock detection, Result — is byte-identical to
// the naive scan under all three policies; the differential tests in
// wakeup_test.go and the retained oracle behind Config.NaiveScan pin
// that equivalence.
//
// Ordering is everywhere driven by worm.key — the precomputed policy key
// (ID, or release<<32|id for ArbAge) — so heap sift-downs, the woken-
// batch sort, and the re-entry merge compare one dense integer instead
// of chasing field pairs through cold worm structs.
//
// ArbRandom is the one policy whose per-step cost keeps an O(active)
// term: the naive scan shuffles the full active list, so the wakeup
// engine must shuffle the identical list (parked worms included) to
// consume the identical RNG stream. Parked worms are still skipped
// without an advance attempt, which is where the time goes.

import (
	"slices"
	"sort"

	"wormhole/internal/message"
	"wormhole/internal/telemetry"
)

// defaultParkStreak is the probation length when Config.ParkStreak is
// zero: a worm parks only after this many consecutive failed steps. Short
// blocked episodes — the common case away from deep saturation — then
// cost exactly what they cost the naive scan (one cheap failed attempt
// per step), while long episodes pay the park/wake machinery once and are
// skipped for their whole remainder. The setting is pure mechanism:
// results are byte-identical for every value (see park hysteresis
// regression tests).
const defaultParkStreak = 8

// stepWakeup advances the simulation by one flit step, attempting only
// worms that can plausibly move.
//
//wormvet:hotpath
func (si *Sim) stepWakeup() {
	random := si.cfg.Arbitration == ArbRandom
	order := si.active
	if random {
		si.orderScratch = append(si.orderScratch[:0], si.active...)
		order = si.orderScratch
		si.shuffler.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] }) //wormvet:allow hotalloc -- shuffle swap closure does not escape (escape harness)
	}

	// progressed: some worm moved, was dropped, or went through the fault
	// retry policy — the configuration changed, so this step cannot be the
	// one that proves a deadlock.
	progressed := false
	// Parked worms are eligible-but-blocked: they count for deadlock
	// detection exactly as their futile attempts did in the naive scan.
	anyEligible := len(order) > 0 || si.parked > 0

	// One loop serves both list disciplines. Under the deterministic
	// policies the active list is maintained directly in policy order, so
	// it is the order: compact it in place, keeping only worms that remain
	// unparked contenders (the write cursor never passes the read
	// position). Under ArbRandom order is a shuffled copy and parked worms
	// stay listed (and are skipped), so the list is filtered afterwards,
	// and only when somebody left it for good: delivered, dropped,
	// aborted, or back in the pending queue.
	keep := si.active[:0]
	left := false
	for _, k := range order {
		w := si.wormK(k)
		if random && w.parkedAt >= 0 {
			continue // would fail; charged lazily
		}
		ok, slotEdge := si.tryMove(w)
		switch {
		case ok:
			progressed = true
			w.streak = 0
			w.woken = false
			if w.status == StatusDelivered {
				left = true
			} else if !random {
				keep = append(keep, k)
			}
		case si.cfg.DropOnDelay:
			si.drop(w) //wormvet:allow hotalloc -- drop path: per-drop cost is accepted in drop-on-delay runs
			progressed, left = true, true
		case si.faultRetriable(w, slotEdge):
			// Dead first edge, header still at the source: one stall for
			// the failed attempt (as the naive scan charges), then back to
			// the pending queue — or aborted — immediately, no probation.
			w.stalls++
			si.totalStalls++
			si.faultRetry(w) //wormvet:allow hotalloc -- fault-retry path: per-retry cost accepted under an outage
			progressed, left = true, true
		case slotEdge >= 0 && w.streak >= si.parkStreak-1:
			w.streak = 0
			si.park(w, k, slotEdge)
		default:
			// Probation, or a transient bandwidth block (crossing
			// capacity resets every step): retry next step.
			w.streak++
			w.stalls++
			si.totalStalls++
			if !random {
				keep = append(keep, k)
			}
		}
	}
	if !random {
		si.active = keep
	} else if left {
		si.active = si.reapList(si.active)
	}

	si.applyStepEnd() // folds releases, wakes parked worms on slot events
	si.now++

	if si.cfg.CheckInvariants {
		si.checkInvariants() //wormvet:allow hotalloc -- debug-gated by Config.CheckInvariants
	}

	if !progressed && anyEligible && !si.deadlockDeferred() {
		// Every eligible worm is slot-blocked and slots free only when
		// worms move; future releases cannot free slots. Frozen forever.
		// (No wake can have fired this step: wakes need slot events, and
		// slot events need an advance, a drop, or a scheduled revival —
		// ruled out here by deadlockDeferred. A fault retry or abort also
		// changed the configuration, so it too defers the verdict.)
		si.deadlocked = true
		si.stampDeadlock(order) //wormvet:allow hotalloc -- deadlock teardown: terminal, runs at most once
		si.finishAsDeadlocked() //wormvet:allow hotalloc -- deadlock teardown: terminal, runs at most once
	}
}

// park puts worm w (list entry k) on park target e's wait queue — e is
// the foreign edge, tagged with parkFlitBit when the block wants a
// shared-pool credit rather than a lane (see deep.go). The stall meter
// starts at the failed attempt just made (step si.now).
//
//wormvet:hotpath
func (si *Sim) park(w *worm, k uint64, e int32) {
	w.parkedAt = int32(si.now)
	w.waitEdge = e
	if m := si.met; m != nil {
		m.Inc(telemetry.CtrParks)
		if w.woken {
			// Woken since its last advance and parking again without
			// progress: the wake bought nothing.
			m.Inc(telemetry.CtrSpuriousWakes)
		}
	}
	w.woken = false
	if tr := si.trc; tr != nil {
		tr.Park(si.now+1, w.id(), e)
	}
	if cause, edge := parkTarget(e); cause != telemetry.CtrStallFault {
		// Lane and shared-pool waits are woken from the step-end fold, which
		// looks at this bit, not at the queues (see edgeRec).
		si.edges[edge].waiters = 1
	}
	si.heapPush(si.waitQueue(e), k)
	si.parked++
}

// parkTarget decodes a park target (worm.waitEdge, worm.blockedOn, the
// failure edge a kernel returns) into the bare edge and the stall cause
// the block is charged to. The cause also names the kind of wait: a dead
// edge (parkFaultBit), a shared-pool credit (parkFlitBit, see deep.go),
// or — untagged — a lane.
//
//wormvet:nonalloc
func parkTarget(t int32) (cause telemetry.Counter, e int32) {
	switch {
	case t&parkFaultBit != 0:
		return telemetry.CtrStallFault, t &^ parkFaultBit
	case t&parkFlitBit != 0:
		return telemetry.CtrStallSharedPool, t &^ parkFlitBit
	}
	return telemetry.CtrStallLaneCredit, t
}

// waitQueue returns the wait queue park target t names. A dead-edge wait
// sits on the fault queue, out of all slot traffic: only the edge's
// revival changes that verdict.
//
//wormvet:hotpath
func (si *Sim) waitQueue(t int32) *[]uint64 {
	switch cause, e := parkTarget(t); cause {
	case telemetry.CtrStallFault:
		return &si.faultQ[e]
	case telemetry.CtrStallSharedPool:
		return &si.waitQFlit[e]
	default:
		return &si.waitQ[e]
	}
}

// queued reports whether any worm sits on edge e's lane or flit wait queue
// (wakeup engine only). The hot path asks edgeRec.waiters first and comes
// here only to retire the bit.
//
//wormvet:hotpath
func (si *Sim) queued(e int) bool {
	return len(si.waitQ[e]) > 0 || (si.waitQFlit != nil && len(si.waitQFlit[e]) > 0)
}

// wakeAll unparks every waiter on q, stamping stalls through the current
// step: the worm would have failed this step too, since credit events fold
// in only at step end. Under the deterministic policies the woken worms
// are batched for one sorted merge back into the active list; ArbRandom's
// waiters never left it, so waking is just unparking.
//
//wormvet:hotpath
func (si *Sim) wakeAll(q *[]uint64) {
	merge := si.cfg.Arbitration != ArbRandom
	for _, k := range *q {
		si.stampParked(k, int32(si.now))
		if merge {
			si.wokenScratch = append(si.wokenScratch, k)
		}
	}
	*q = (*q)[:0]
}

// wakeBest unparks the n best-priority waiters on q — the only ones that
// could win the n freed credits next step (see wakeEdge, wakeEdgeDeep for
// why the rest would still fail). ArbRandom's per-step shuffle gives every
// waiter a shot at any arbitration position, so no priority argument
// applies and the whole queue wakes.
//
//wormvet:hotpath
func (si *Sim) wakeBest(q *[]uint64, n int32) {
	if si.cfg.Arbitration == ArbRandom {
		si.wakeAll(q)
		return
	}
	for ; n > 0 && len(*q) > 0; n-- {
		k := si.heapPop(q)
		si.stampParked(k, int32(si.now))
		si.wokenScratch = append(si.wokenScratch, k)
	}
}

// wakeEdge runs after a slot event on edge e folded into occupancy. It
// wakes the free-slot count of best-priority waiters — the only ones
// that could win a grant next step. Any lower-priority waiter would
// still fail: the woken worms and the rest of the active list are all
// ahead of it in arbitration order, so by its turn either every free
// slot on e is granted or e's crossing capacity is exhausted, both of
// which fail its attempt exactly as parking assumes. The missing case —
// a higher-priority contender declining its slot by failing bandwidth on
// some *other* edge of its crossed interval — cannot happen under
// lane-implied bandwidth (see Sim.crossings): a slot-blocked header is
// short of its final edge, so every edge the worm would cross is a body
// edge, and body edges never refuse. Where that argument breaks the
// whole queue wakes instead (as it does under ArbRandom, see wakeBest).
// When the event leaves the edge full — grants outweighed releases —
// laneFree is zero, nobody can grant next step, and nobody wakes.
//
//wormvet:hotpath
func (si *Sim) wakeEdge(e int32) {
	if si.deepMode {
		si.wakeEdgeDeep(e)
		return
	}
	if !si.laneImplied() {
		// Whole-queue wake, for the configurations where a woken worm can
		// decline its credit. RestrictedBandwidth: cap 1 < B, so a body
		// edge with two holders already refuses one. mixedFinal: some edge
		// serves as one message's final edge and another's body edge, so a
		// final-edge crossing (which holds no slot) can saturate a woken
		// worm's body edge and fail it on bandwidth even at cap == B.
		si.wakeAll(&si.waitQ[e])
		return
	}
	si.wakeBest(&si.waitQ[e], si.edges[e].laneFree)
}

// wakeEdgeDeep wakes edge e's deep-mode waiters whose resume condition
// now holds — and, under the deterministic policies, only the top of
// each queue up to the freed credit count. The count rule is sound in
// deep mode for a sharper reason than the rigid engine's: a parked deep
// worm moved nothing since parking, so its next attempt is decided
// entirely by its one blocked flit, whose only checks are the credit on
// e and bandwidth on e itself. A woken waiter therefore declines its
// credit only by failing e's bandwidth — and bandwidth consumption is
// monotone within a step, so the first decline dooms every lower-
// priority waiter on e too. Either the freed credits are consumed by
// the woken top (and lower waiters would fail the credit check), or a
// decline proves e's bandwidth exhausted (and lower waiters would fail
// that) — un-woken waiters fail either way, exactly as the park
// invariant promises. In shared mode a lane winner also consumes pool
// credits ahead of flit-queue waiters, but that only turns woken
// waiters into harmless re-parkers, never lets an un-woken one win.
//
// A queue whose resume condition is false post-fold (the lane, or pool,
// is still exhausted) stays parked entirely: waking it on unrelated
// credit traffic is what made contended deep edges thrash their whole
// backlog awake every step. ArbRandom keeps whole-queue unparks (see
// wakeBest).
//
//wormvet:hotpath
func (si *Sim) wakeEdgeDeep(e int32) {
	if q := &si.waitQ[e]; len(*q) > 0 && si.edges[e].laneFree > 0 && (!si.shared || si.flitFree[e] > 0) {
		si.wakeBest(q, si.edges[e].laneFree)
	}
	if si.waitQFlit == nil {
		return
	}
	if q := &si.waitQFlit[e]; len(*q) > 0 && si.flitFree[e] > 0 {
		si.wakeBest(q, si.flitFree[e])
	}
}

// flushParked returns every parked worm to the active list. It runs
// exactly once per Sim, between steps, when an injection flips the
// edge-role classification to mixed: the free-slot-count reasoning that
// justified leaving lower-priority waiters parked no longer holds, so
// all of them get their attempt back. Stalls are stamped through the
// last completed step (si.now already names the upcoming one); each
// worm re-fails and re-parks naturally if it is still blocked.
func (si *Sim) flushParked() {
	for e := range si.waitQ {
		q := si.waitQ[e]
		if len(q) == 0 {
			continue
		}
		for _, k := range q {
			si.stampParked(k, int32(si.now)-1)
			if si.cfg.Arbitration != ArbRandom {
				// ArbRandom waiters never left the active list; the
				// deterministic policies re-insert at policy position.
				si.insertActive(k)
			}
		}
		si.waitQ[e] = q[:0]
	}
}

// heapPush and heapPop maintain waitQ[e] as a binary min-heap of policy
// keys — pure integer sifts, no worm lookups — keeping park at
// O(log queue) and a slot event at O(slots·log queue) instead of
// O(queue).
//
//wormvet:hotpath
func (si *Sim) heapPush(q *[]uint64, k uint64) {
	*q = append(*q, k)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if k >= h[p] {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

//wormvet:hotpath
func (si *Sim) heapPop(q *[]uint64) uint64 {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if h[m] >= h[i] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// stampParked credits the worm behind list entry k with one stall for
// every step in [parkedAt, through] — the steps its advance attempt would
// have failed — and unparks it.
//
//wormvet:hotpath
func (si *Sim) stampParked(k uint64, through int32) {
	w := si.wormK(k)
	stall := through - w.parkedAt + 1
	w.stalls += stall
	si.totalStalls += int(stall)
	if m := si.met; m != nil {
		// The whole parked span is attributed to the edge (and credit kind)
		// the worm was waiting on — these are the steps its attempt would
		// have failed there.
		m.Inc(telemetry.CtrWakes)
		cause, e := parkTarget(w.waitEdge)
		// The park-step attempt itself was already recorded by tryMove's
		// EdgeStall, so only the remaining parked steps are added here —
		// keeping the stall counters in lockstep with Result.TotalStalls.
		m.StallSpan(cause, e, int64(stall)-1)
	}
	if tr := si.trc; tr != nil {
		tr.Wake(int(through)+1, w.id(), w.waitEdge)
	}
	w.woken = true
	w.parkedAt = -1
	si.parked--
	// A woken worm skips the park probation: its block is already proven
	// long-lived, so the first post-wake failure re-parks it immediately.
	// This is what keeps whole-queue wakes (deep mode, restricted
	// bandwidth, mixed final/body edges) from thrashing — without it,
	// every wake buys each non-winning waiter a full fresh probation of
	// futile scans. Like ParkStreak itself, this is pure mechanism:
	// results are byte-identical (pinned by the park-hysteresis and
	// differential suites).
	w.streak = si.parkStreak - 1
}

// mergeWoken folds this step's woken worms back into the active list
// with one sorted merge: O(woken·log woken + active), versus the
// quadratic cost of inserting a long wait queue one worm at a time.
// Rent (PR 23, one insertActive per woken worm instead): knee-rigid
// wall_s +3.7% (0.1768 → 0.1833 s, 9 of 10 alternating pairs), bisect-sat
// +5.1% (0.931 → 0.979 s, 10 of 10). It stays.
//
//wormvet:hotpath
func (si *Sim) mergeWoken() {
	woken := si.wokenScratch
	if len(woken) == 0 {
		return
	}
	slices.Sort(woken) //wormvet:allow hotalloc -- in-place sort of the woken batch
	a := si.active
	merged := si.mergeScratch[:0]
	i, j := 0, 0
	for i < len(a) && j < len(woken) {
		if a[i] < woken[j] {
			merged = append(merged, a[i])
			i++
		} else {
			merged = append(merged, woken[j])
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, woken[j:]...)
	// Swap buffers: the old active backing becomes the next merge buffer.
	si.active, si.mergeScratch = merged, a[:0]
	si.wokenScratch = woken[:0]
}

// insertActive inserts policy key k into the active list at its policy
// position; the common case — k belongs at the end — is O(1). Used for
// admissions; wakes go through mergeWoken in batches.
//
//wormvet:hotpath
func (si *Sim) insertActive(k uint64) {
	a := si.active
	if n := len(a); n == 0 || a[n-1] < k {
		si.active = append(si.active, k)
		return
	}
	pos := sort.Search(len(a), func(i int) bool { return k < a[i] }) //wormvet:allow hotalloc -- binary search; the closure does not escape (escape harness)
	a = append(a, 0)
	copy(a[pos+1:], a[pos:])
	a[pos] = k
	si.active = a
}

// stampDeadlock finalizes a detected deadlock. Every in-flight worm is
// blocked — parked on a full edge, or bandwidth-stalled in the active
// list — so parked worms' accrued stalls are stamped (through the
// detecting step, si.now-1 post-increment) and the blocked set is
// reported in the detecting step's arbitration order, matching the list
// the naive scan builds as its worms fail one by one.
func (si *Sim) stampDeadlock(order []uint64) {
	// Under ArbRandom order is this step's shuffle over the full active
	// list; with nothing moved or dropped, every entry is blocked.
	blocked := order
	if si.cfg.Arbitration != ArbRandom {
		// Blocked set = bandwidth-stalled survivors still on the active
		// list plus every parked worm, in policy (= key) order.
		blocked = make([]uint64, 0, len(si.active)+si.parked)
		blocked = append(blocked, si.active...)
		for _, w := range si.records(true) {
			if w.parkedAt >= 0 {
				blocked = append(blocked, w.key)
			}
		}
		slices.Sort(blocked)
	}
	si.blockedIDs = make([]message.ID, len(blocked))
	for i, k := range blocked {
		si.blockedIDs[i] = message.ID(uint32(k))
		if w := si.wormK(k); w.parkedAt >= 0 {
			q := si.waitQueue(w.waitEdge)
			*q = (*q)[:0]
			si.stampParked(k, int32(si.now)-1)
		}
	}
}
