package vcsim

// This file is the buffer-architecture layer: the flit-level "deep" engine
// that models multi-flit virtual-channel lanes (Config.LaneDepth d > 1)
// and dynamically shared per-edge flit pools (Config.SharedPool). The
// paper's model — exactly one flit of buffering per virtual channel — is
// the d = 1 static special case and keeps running on the original rigid
// engine in vcsim.go, bit for bit; the deep engine takes over only when a
// config asks for an architecture the rigid engine cannot express.
//
// Model. Every edge still multiplexes B lanes (virtual channels), and a
// worm holds at most one lane per edge — a lane belongs to a worm from the
// step its first flit is buffered on the edge until the step its last flit
// leaves. What changes is flit capacity:
//
//   - static lanes (SharedPool == false): each lane is a private d-flit
//     FIFO, so a worm can pile up to d of its own flits on one edge and an
//     edge buffers at most B·d flits, at most d per worm;
//   - shared pool (SharedPool == true): the edge owns a single pool of B·d
//     flit credits allocated dynamically across its lanes — one hot lane
//     can absorb the entire pool, but the lane count stays capped at B, so
//     at most B distinct worms are ever buffered per edge.
//
// With more than one flit of lane storage a blocked worm no longer stalls
// rigidly: trailing flits keep advancing into free lane space behind the
// blocked header ("compression"), draining the upstream edges they leave.
// That breaks the single-counter worm representation, so the deep engine
// tracks per-flit progress: prog[j] = edges flit j has crossed, a
// non-increasing sequence (FIFO order is structural). Flit j with progress
// 1 ≤ c ≤ D−1 occupies the buffer at the head of path[c−1]; progress D
// means delivered, progress 0 means still in the unbounded injection
// buffer.
//
// Storage. The flit state hangs off the worm record — prog sits in the
// worm's arena buffer right behind its path, and the fHead/lastInj cursors
// are inline — so an advance attempt touches one record and one contiguous
// buffer; the pre-overhaul engine kept a parallel deepWorms array whose
// extra cache miss per attempt was a measurable slice of deep-knee step
// cost. Edge credits are the shared in-place counters of vcsim.go:
// edgeRec.laneFree (lanes = distinct worms buffered), flitFree (the B·d
// flit credits), with releases deferred through edgeRec.relLane/relFlit
// under the two-phase discipline, and the epoch-stamped crossings meter
// for bandwidth.
//
// One flit step moves every movable flit once, under the same conservative
// two-phase discipline as the rigid engine (credits released during a step
// become visible at the next step). Flit j advances from progress c iff
//
//  1. FIFO: j == 0, or flit j−1 started the step strictly ahead
//     (prog[j] < prog[j−1]);
//  2. buffer capacity on the target edge path[c] (skipped for the final
//     edge, whose delivery buffer is external):
//     - shift-through: when flit j−1 advances out of path[c] this very
//       step, flit j inherits the vacated slot — no credit changes hands.
//       This is the intra-worm FIFO shift of the rigid engine (which only
//       ever grants at the header and releases at the tail) and is what
//       makes an unobstructed deep worm advance exactly like a rigid one;
//     - joining its own lane: needs own-lane room (static: fewer than d
//       own flits there; shared: a pool credit);
//     - acquiring a lane (first flit of the worm on that edge): needs a
//       free lane (< B in use) and, in shared mode, a pool credit;
//  3. bandwidth: the crossing cap on path[c] (B, or 1 under
//     RestrictedBandwidth) has headroom — identical to the rigid rule.
//
// A worm "advances" when any of its flits moves; a step in which no flit
// moves is a stall, which keeps MessageStats.Stalls, drop-on-delay, and
// deadlock detection on the same definitions as the rigid engine. The
// wakeup stepper parks a deep worm only when its failed step was blocked
// on exactly one foreign edge (a lane or pool credit held by other worms)
// and nothing was bandwidth-blocked: FIFO and own-lane blocks resolve only
// through the worm's own movement, so the single foreign edge is provably
// the only place whose credit events can change the verdict. Waits on that
// edge wake on any credit event — lane or flit — and, because the
// free-slot-count argument of the rigid wake rule does not survive pooled
// credits, a deep-mode slot event always wakes the whole queue (the same
// conservative rule the restricted-bandwidth model uses).

import (
	"fmt"

	"wormhole/internal/telemetry"
)

func panicf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

// parkFlitBit tags a deep park target (the foreign edge a fully blocked
// worm returns) whose blocked flit was refused a shared-pool credit while
// joining its own lane — the one deep block whose resume condition is
// flitFree > 0 alone. An untagged target is a lane acquisition, resumable
// only when laneFree > 0 (and, shared, flitFree > 0 too). wakeEdge wakes
// a queue only when its condition actually holds post-fold, so contended
// edges' constant credit traffic no longer thrashes their parked worms.
const parkFlitBit = int32(1) << 30

// tryAdvanceDeep attempts to move every movable flit of worm w one edge
// and reports whether any flit moved. On a fully blocked step it returns
// the single foreign-blocked edge the worm may be parked on, or −1 when
// no such edge exists (multiple foreign edges, or a transient bandwidth
// block that resets next step).
//
//wormvet:hotpath
func (si *Sim) tryAdvanceDeep(w *worm) (bool, int32) {
	if w.d == 0 {
		// Source equals destination: the rigid delivery rule applies
		// verbatim (no buffers are involved).
		return si.tryAdvance(w)
	}
	if b := w.blockedOn; b >= 0 {
		// Cached fully-blocked verdict (see worm.blockedOn): while the
		// blocking credit stays exhausted (or the blocking edge stays
		// dead), nothing else about the verdict can change — every other
		// flit is FIFO- or own-lane-blocked, states only the worm's own
		// movement resolves — so the whole rescan collapses to this
		// resume-condition probe.
		cause, e := parkTarget(b)
		var holds bool
		switch cause {
		case telemetry.CtrStallFault:
			holds = si.deadEdge[e]
		case telemetry.CtrStallSharedPool:
			holds = si.flitFree[e] <= 0
		default:
			holds = si.edges[e].laneFree <= 0 || (si.shared && si.flitFree[e] <= 0)
		}
		if holds {
			// A cached re-fail is a proven park-eligible verdict: the
			// block already outlived a step and wakes are precise, so
			// skip the rest of the probation (pure mechanism — park
			// timing never changes results; see the park-hysteresis
			// suite).
			w.streak = si.parkStreak - 1
			if m := si.met; m != nil {
				m.EdgeStall(cause, e)
			}
			return false, b
		}
		w.blockedOn = -1
	}
	// A dead edge anywhere in the network disables the stretched fast
	// path: its all-advance commit cannot express a refused reservation.
	// Lane kills alone keep it — they act purely through the credit
	// counters the fast path already checks.
	if w.stretched && si.deadEdges == 0 && si.tryAdvanceStretched(w) {
		return si.finishDeepMove(w)
	}
	var (
		moved     bool
		parkEdge  int32 = -1   // the one foreign-blocked edge, if unique
		parkable        = true // false on bandwidth or multi-edge blocks
		bwBlocked bool         // any flit hit the crossing cap (telemetry)
		// Predecessor state, in start-of-step (old) values: the deep rules
		// only ever consult the previous flit and its buffered group, so a
		// single left-to-right pass needs no second array.
		prevOld    = w.d // flit fHead−1 is delivered (progress D)
		prevMoved  bool
		groupProg  int32 = -1 // old progress of the predecessor's group
		groupCount int32      // its size (own flits at that progress)
		// pendingRel defers the predecessor's source-buffer release until
		// this flit's verdict is known: if it shifts through, the slot
		// passes inside the worm and no credit moves at all.
		pendingRel int32 = -1

		// Hot-loop locals: the buffers, per-edge counter arrays, limits,
		// and this step's crossing epoch, hoisted so the per-flit body
		// stays load-light (method calls in the loop would otherwise
		// force the slice headers to reload from si each iteration).
		prog      = si.prog(w)
		path      = si.path(w)
		bodyCap   = w.d - 2
		lastFlit  = int(w.l) - 1
		stamp     = si.crossStamp()
		cap32     = si.capI32
		depth     = si.depth
		edges     = si.edges
		flitFree  = si.flitFree
		relFlit   = si.relFlit
		crossings = si.crossings
		shared    = si.shared
	)
	// Flits beyond lastInj+1 are uninjected and FIFO-blocked behind an
	// uninjected flit; they cannot move and are skipped wholesale.
	limit := int(w.lastInj) + 1
	if limit > lastFlit {
		limit = lastFlit
	}
	for j := int(w.fHead); j <= limit; j++ {
		c := prog[j]
		adv := false
		foreign := int32(-1)
		if c < prevOld { // FIFO: strictly behind the predecessor at step start
			e := path[c]
			shift := prevMoved && prevOld == c+1
			fits := true
			if dead := si.deadEdge; dead != nil && dead[e] &&
				((c > bodyCap && j == 0) || (c <= bodyCap && !shift && groupProg != c+1)) {
				// New reservation on a dead edge — a header's final-edge
				// crossing or a lane acquisition — is refused. Established
				// flits (shift-throughs, own-lane joins, post-header
				// final-edge drains) keep flowing: the link's pipeline
				// drains, it just accepts nothing new.
				fits = false
				foreign = e | parkFaultBit
			}
			if fits && c <= bodyCap && !shift {
				if groupProg == c+1 {
					// Joining the lane the predecessor group occupies.
					if si.shared {
						if flitFree[e] <= 0 {
							fits = false
							foreign = e | parkFlitBit
						}
					} else if groupCount >= depth {
						fits = false // own lane full: only own movement frees it
					}
				} else {
					// First flit of the worm on this edge: acquire a lane.
					if edges[e].laneFree <= 0 {
						fits = false
						foreign = e
					} else if shared && flitFree[e] <= 0 {
						fits = false
						foreign = e
					}
				}
			}
			if fits {
				if cw := crossings[e]; cw >= stamp && int32(cw-stamp) >= cap32 {
					fits = false
					parkable = false // bandwidth resets every step: transient
					bwBlocked = true
				}
			}
			if fits {
				adv = true
				cw := crossings[e]
				if cw < stamp {
					cw = stamp
				}
				crossings[e] = cw + 1
				si.flitHops++
				if c <= bodyCap && !shift {
					flitFree[e]--
					if groupProg != c+1 {
						edges[e].laneFree-- // lane acquisition
					}
					si.touchMax(e)
				}
			} else if foreign >= 0 {
				if parkEdge < 0 {
					parkEdge = foreign
				} else if parkEdge != foreign {
					parkable = false // blocked on two different edges
				}
			}
		}
		// Resolve the predecessor's deferred source release now that this
		// flit's verdict is in: a shift-through consumes the slot silently;
		// anything else frees the flit credit and the (now empty) lane.
		if pendingRel >= 0 {
			if !adv {
				relFlit[pendingRel]++
				edges[pendingRel].relLane++
				si.touch(pendingRel)
			}
			pendingRel = -1
		}
		if adv {
			if c >= 1 {
				// The flit leaves the buffer at the head of path[c−1].
				s := path[c-1]
				nx := c - 2 // no successor: both special cases miss
				if j < lastFlit {
					nx = prog[j+1]
				}
				switch nx {
				case c:
					// A groupmate stays behind: credit frees, lane is kept.
					relFlit[s]++
					si.touch(s)
				case c - 1:
					// The successor may shift through this very slot.
					pendingRel = s
				default:
					relFlit[s]++
					edges[s].relLane++
					si.touch(s)
				}
			} else {
				w.lastInj = int32(j)
				if w.injectTime < 0 {
					si.stampInject(w)
				}
			}
			if c == w.d-1 {
				w.fHead++ // crossed the final edge: delivered
			}
			prog[j] = c + 1
			moved = true
		}
		// Slide the predecessor window (old values) for the next flit.
		if c == groupProg {
			groupCount++
		} else {
			groupProg, groupCount = c, 1
		}
		prevOld, prevMoved = c, adv
	}
	if pendingRel >= 0 {
		// The tail flit advanced with no successor to shift through.
		relFlit[pendingRel]++
		edges[pendingRel].relLane++
		si.touch(pendingRel)
	}
	if !moved {
		if parkable && parkEdge >= 0 {
			if m := si.met; m != nil {
				m.EdgeStall(parkTarget(parkEdge))
			}
			w.blockedOn = parkEdge
			return false, parkEdge
		}
		if m := si.met; m != nil {
			// No single foreign edge to blame: a transient bandwidth block,
			// or head-of-line pressure (FIFO / own-lane-full / multi-edge
			// blocks, all resolvable only by the worm's own movement).
			if bwBlocked {
				m.Inc(telemetry.CtrStallBandwidth)
			} else {
				m.Inc(telemetry.CtrStallHeadOfLine)
			}
		}
		return false, -1
	}
	// Re-derive the stretch flag from the post-step configuration: the
	// fast path re-engages as soon as a compressed worm has pulled back
	// into strictly consecutive progress values.
	str := true
	for j := int(w.fHead) + 1; j <= int(w.lastInj); j++ {
		if prog[j-1]-prog[j] != 1 {
			str = false
			break
		}
	}
	w.stretched = str
	return si.finishDeepMove(w)
}

// tryAdvanceStretched is the stretched-worm fast path: with every
// in-flight flit exactly one edge behind its predecessor, an unobstructed
// step is the rigid advance — trailing flits shift through vacated slots,
// the header acquires (at most) one new buffer, the tail frees (at most)
// one — so the whole verdict reduces to one header credit check plus a
// bandwidth scan of the contiguous crossed range, and the commit to a
// handful of counter updates. No group tracking, no deferred releases.
//
// It returns true only when it committed that all-flits advance. It
// returns false — having mutated nothing — when the worm cannot take it:
// the header is credit-blocked (trailing flits may still compress),
// bandwidth is short anywhere on the range, or an injection gap means the
// next uninjected flit cannot shift in behind the tail. The general scan
// then derives the exact verdict; byte-for-byte equivalence of the two
// paths on the all-advance case is pinned by the differential and fuzz
// suites, which drive every (d, shared) × policy corner through both.
//
// Rent (PR 23, the general scan forced on every step instead): knee-deep
// wall_s +7.9%, medians 0.644 → 0.696 s, slower in 10 of 10 alternating
// pairs, every run correct. It stays.
//
//wormvet:hotpath
func (si *Sim) tryAdvanceStretched(w *worm) bool {
	var (
		prog = si.prog(w)
		path = si.path(w)
		h    = int(w.fHead)
		last = int(w.lastInj)
		c    int32 // header progress: the header crosses path[c]
		lo   int32 // lowest crossed path index
	)
	injecting := last < int(w.l)-1
	if last >= 0 {
		c = prog[h]
		lo = prog[last]
		if injecting {
			if lo != 1 {
				// The tail sits deeper than the injection edge: the next
				// flit cannot shift in, a case the fast step cannot take.
				return false
			}
			lo = 0
		}
	}
	// Header credit (skipped on the final edge): always a fresh lane —
	// in a stretched worm the predecessor group sits one edge ahead.
	if c <= w.d-2 {
		e := path[c]
		if si.edges[e].laneFree <= 0 || (si.shared && si.flitFree[e] <= 0) {
			return false
		}
	}
	// Bandwidth over the contiguous crossed range, committing as it
	// checks: a failure rolls back the crossings already taken, which —
	// bandwidth being per-step scratch nothing else reads mid-scan —
	// restores the exact pre-attempt state. The range is conflict-free
	// at cap == B in the common case, so the single pass saves reloading
	// every entry for a separate commit loop.
	stamp := si.crossStamp()
	cap32 := si.capI32
	for i := lo; i <= c; i++ {
		cw := si.crossings[path[i]]
		if cw < stamp {
			cw = stamp
		}
		if int32(cw-stamp) >= cap32 {
			for k := lo; k < i; k++ {
				si.crossings[path[k]]--
			}
			return false
		}
		si.crossings[path[i]] = cw + 1
	}
	si.flitHops += int64(c - lo + 1)
	if c <= w.d-2 {
		e := path[c]
		si.flitFree[e]--
		si.edges[e].laneFree--
		si.touchMax(e)
	}
	if !injecting {
		// Fully injected: the tail abandons its buffer (lo = its old
		// progress ≥ 1). While injecting, the vacated slot shifts to the
		// entering flit instead and no credit moves.
		s := path[lo-1]
		si.relFlit[s]++
		si.edges[s].relLane++
		si.touch(s)
	}
	for j := h; j <= last; j++ {
		prog[j]++
	}
	if injecting {
		prog[last+1] = 1
		w.lastInj = int32(last) + 1
		if w.injectTime < 0 {
			si.stampInject(w)
		}
	}
	if c == w.d-1 {
		w.fHead++ // the header crossed the final edge: delivered
	}
	return true
}

// finishDeepMove is the shared post-advance epilogue of the deep engine's
// two paths: advance event, delivery detection, status update.
//
//wormvet:hotpath
func (si *Sim) finishDeepMove(w *worm) (bool, int32) {
	if m := si.met; m != nil {
		m.Inc(telemetry.CtrAdvances)
	}
	if tr := si.trc; tr != nil {
		tr.Advance(si.now+1, w.id(), si.prog(w)[0])
	}
	if w.fHead >= w.l {
		si.retire(w, StatusDelivered)
	} else {
		w.status = StatusActive
	}
	return true, -1
}

// releaseDeepWorm frees every buffer credit a dropped deep worm holds:
// one flit credit per buffered flit, one lane per occupied edge (visible
// next step, like any other release).
//
//wormvet:hotpath
func (si *Sim) releaseDeepWorm(w *worm) {
	prog, path := si.prog(w), si.path(w)
	for j := int(w.fHead); j <= int(w.lastInj); j++ {
		c := prog[j]
		if c < 1 || c > w.d-1 {
			continue
		}
		s := path[c-1]
		si.relFlit[s]++
		if j == int(w.lastInj) || prog[j+1] != c {
			si.edges[s].relLane++ // last own flit on the edge: lane frees too
		}
		si.touch(s)
	}
}

// checkInvariantsDeep asserts the deep model's invariants: per-edge flit
// occupancy and lane counts derived from every worm's prog array must
// match the persistent accounting, and no capacity may be exceeded —
// flits ≤ B·d per edge, lanes ≤ B per edge, and (static mode) at most d
// flits per worm per edge. FIFO monotonicity of each prog array rides
// along. Panics on violation so tests pinpoint the first bad step.
func (si *Sim) checkInvariantsDeep() {
	// Dense per-edge counters, walked in edge order: maps here would pick
	// the first panic by randomized iteration order (see checkInvariants).
	flitOcc := make([]int32, len(si.flitFree))
	laneOcc := make([]int32, len(si.edges))
	for i, w := range si.records(true) {
		if w.status == StatusDropped || w.status == StatusDelivered || w.status == StatusAborted {
			continue
		}
		prog, path := si.prog(w), si.path(w)
		prev := w.d
		for j := 0; j < int(w.l); j++ {
			c := prog[j]
			if c > prev {
				panicf("vcsim: step %d: worm %d flit %d progress %d ahead of flit %d (%d)", si.now, i, j, c, j-1, prev)
			}
			if c < 0 || c > w.d {
				panicf("vcsim: step %d: worm %d flit %d progress %d out of range [0,%d]", si.now, i, j, c, w.d)
			}
			if c >= 1 && c <= w.d-1 {
				e := path[c-1]
				flitOcc[e]++
				if j == 0 || prog[j-1] != c {
					laneOcc[e]++ // first flit of this worm's group on e
				}
				if !si.shared {
					// Group size = own flits at this progress; count via the
					// run of equal values ending here.
					run := int32(1)
					for k := j - 1; k >= 0 && prog[k] == c; k-- {
						run++
					}
					if run > si.depth {
						panicf("vcsim: step %d: worm %d holds %d > d=%d flits on edge %d", si.now, i, run, si.depth, e)
					}
				}
			}
			prev = c
		}
	}
	for e, c := range flitOcc {
		if c != si.flitsInUse(e) {
			if c == 0 {
				panicf("vcsim: step %d: edge %d has stale flit occupancy %d", si.now, e, si.flitsInUse(e))
			}
			panicf("vcsim: step %d: edge %d flit occupancy %d but flits in use %d", si.now, e, c, si.flitsInUse(e))
		}
		if c > si.poolCap {
			panicf("vcsim: step %d: edge %d holds %d > B·d=%d flits", si.now, e, c, si.poolCap)
		}
	}
	for e, c := range laneOcc {
		if c != si.lanesInUse(e) {
			if c == 0 {
				panicf("vcsim: step %d: edge %d has stale lane occupancy %d", si.now, e, si.lanesInUse(e))
			}
			panicf("vcsim: step %d: edge %d lane occupancy %d but lanes in use %d", si.now, e, c, si.lanesInUse(e))
		}
		if c > si.bI32 {
			panicf("vcsim: step %d: edge %d holds %d > B=%d lanes", si.now, e, c, si.b)
		}
	}
}
