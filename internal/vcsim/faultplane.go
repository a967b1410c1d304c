package vcsim

// Fault plane: deterministic kill/revive schedules (internal/fault)
// threaded through every stepper as first-class state.
//
// Semantics. A killed lane removes one credit from its edge — laneFree
// (and, deep mode, flitFree) is debited immediately and may go negative
// while occupants drain; flits in flight are never destroyed. A dead
// edge grants no *new* reservations: a header may not extend onto it
// (rigid), a worm may not acquire a lane on it and the header flit may
// not cross it as a final edge (deep) — but established flits behind
// the header keep draining, including shift-through and own-lane joins,
// exactly as a real router drains a failing link's pipeline.
//
// Timing invariant: before the step at time t executes any advance
// attempt, every event with Step ≤ t has been applied. Two application
// paths maintain it:
//
//   - at the top of applyStepEnd (events with Step ≤ now+1), ahead of the
//     credit fold: kills and revives adjust the counters in place and put
//     the edge on the dirty list, so a revive is folded — and wakes
//     waiters — exactly like a credit release, which is what keeps the
//     naive scan and the wakeup engine byte-identical (a revive IS a slot
//     event). Revives deliberately bypass relLane: a schedule may kill and
//     revive the same lane any number of times in one step, and the 16-bit
//     release counter is sized for worm releases only (see edgeRec);
//   - at the top of step() (events with Step ≤ now): only reachable after
//     a StepTo/Drain fast-forward jumped the clock past scheduled events.
//     Jumps only happen with nothing in flight, so there are no waiters
//     to wake.
//
// Events scheduled inside a trailing idle span that no step ever
// executes (a truncated run, or a horizon past the last worm) stay
// unapplied — consistently across engines.
//
// Blocked worms split two ways. A worm whose header is still at its
// source (nothing injected) and whose first edge is dead can abort the
// attempt and re-enter the pending queue under Config.Retry — capped
// exponential backoff in simulated time, StatusAborted when attempts
// run out. Every other dead-edge block parks on the edge's fault queue, a
// wait heap woken only by that edge's revival (slot events cannot change
// a deadness verdict). Kill-starved live edges are ordinary credit
// blocks: worms park on the regular wait queues and revives wake them
// through the step-end fold.
//
// Deadlock honesty: while any scheduled revive lies at or beyond the
// current step, an apparently frozen configuration may still be broken
// by it, so declaration is deferred (now ≤ lastRevive). A deadlock
// declared with dead resources still present is additionally flagged
// FaultDeadlocked — the freeze is at least partly the outage's doing.

import (
	"fmt"

	"wormhole/internal/fault"
	"wormhole/internal/telemetry"
)

// parkFaultBit tags a park target (worm.waitEdge, worm.blockedOn, the
// stepper failure edge) as a dead-edge wait: the worm sits on the
// edge's fault queue and only that edge's revival wakes it. Distinct from
// deep.go's parkFlitBit (1<<30); edge IDs stay far below both.
const parkFaultBit = int32(1) << 29

// validateFaults rejects schedules that do not fit the network or the
// 32-bit time layout; NewSim and the batch constructors share it.
func validateFaults(numEdges int, cfg Config) error {
	if len(cfg.Faults) == 0 {
		return nil
	}
	if err := cfg.Faults.Validate(numEdges, cfg.VirtualChannels); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	for _, ev := range cfg.Faults {
		if ev.Step > MaxHorizon {
			return fmt.Errorf("%w: fault event step %d exceeds MaxHorizon", ErrOverHorizon, ev.Step)
		}
	}
	if cfg.Retry.MaxAttempts < 0 || cfg.Retry.Backoff < 0 || cfg.Retry.BackoffCap < 0 ||
		cfg.Retry.Backoff > MaxHorizon || cfg.Retry.BackoffCap > MaxHorizon {
		return fmt.Errorf("%w: negative or over-horizon RetryPolicy %+v", ErrBadConfig, cfg.Retry)
	}
	return nil
}

// applyFaults consumes schedule events with Step ≤ upTo, moving credits in
// place and marking the edge dirty so the step-end fold probes it and wakes
// its waiters.
//
//wormvet:hotpath
func (si *Sim) applyFaults(upTo int) {
	m := si.met
	for si.faultIdx < len(si.faults) {
		ev := si.faults[si.faultIdx]
		if ev.Step > upTo {
			break
		}
		si.faultIdx++
		e := int32(ev.Edge) //wormvet:allow horizon -- validateFaults bounds Edge < numEdges
		switch ev.Kind {
		case fault.KillLane:
			si.edges[e].laneFree--
			si.killedLanes[e]++
			si.killedTotal++
			if si.deepMode {
				si.flitFree[e] -= si.depth
			}
			si.touch(e)
		case fault.ReviveLane:
			si.killedLanes[e]--
			si.killedTotal--
			si.edges[e].laneFree++
			if si.deepMode {
				si.flitFree[e] += si.depth
			}
			si.touch(e)
		case fault.KillEdge:
			si.deadEdge[e] = true
			si.deadEdges++
			// From the next step on, a header parked for a credit on e
			// fails on the dead edge instead: a fault stall, or a retry if
			// it never left its source, as the naive scan finds. Wake the
			// credit waiters to make that attempt. (Direct mode has none.)
			if !si.naive {
				for _, k := range [...]int32{0, si.waits.flit} {
					if q := si.waits.find(e, k); q != nil {
						si.wakeAll(q)
					}
				}
			}
		case fault.ReviveEdge:
			si.deadEdge[e] = false
			si.deadEdges--
			// Revival is the only event that can change a dead-edge
			// verdict: wake the whole fault queue. (Direct mode cannot
			// have waiters — nothing is in flight during a jump.)
			if q := si.waits.find(e, si.waits.fault); q != nil {
				si.wakeAll(q)
			}
		}
		// Outage-span accounting for the per-edge fault-time heatmap.
		switch ev.Kind {
		case fault.KillLane, fault.KillEdge:
			if si.faultSince[e] < 0 {
				si.faultSince[e] = int32(ev.Step) //wormvet:allow horizon -- validateFaults bounds Step ≤ MaxHorizon
			}
			if m != nil {
				m.Inc(telemetry.CtrFaultKills)
			}
		default:
			if si.killedLanes[e] == 0 && !si.deadEdge[e] && si.faultSince[e] >= 0 {
				if m != nil {
					m.EdgeFault(e, int64(ev.Step)-int64(si.faultSince[e]))
				}
				si.faultSince[e] = -1
			}
			if m != nil {
				m.Inc(telemetry.CtrFaultRevives)
			}
		}
		if tr := si.trc; tr != nil {
			tr.Fault(ev.Step, e, int32(ev.Kind))
		}
	}
}

// faultRetriable reports whether a failed advance should go through the
// retry policy instead of stalling: the block is a dead-edge verdict,
// the header never left the source, and retries are enabled.
//
//wormvet:hotpath
func (si *Sim) faultRetriable(w *worm, failEdge int32) bool {
	return failEdge >= 0 && failEdge&parkFaultBit != 0 &&
		w.injectTime < 0 && si.retryMax > 0
}

// faultRetry re-schedules a never-injected, dead-edge-blocked worm:
// back into the pending queue after min(Backoff·2^retries, BackoffCap)
// simulated steps, or — once MaxAttempts re-injections have failed —
// abandoned with StatusAborted. Identical under every stepper; the
// caller removes the worm from its active structures.
func (si *Sim) faultRetry(w *worm) {
	if int(w.retries) >= si.retryMax {
		si.retire(w, StatusAborted)
		return
	}
	back := si.retryCap
	if shift := uint(w.retries); shift < 31 {
		if b := si.retryBase << shift; b < back && b > 0 {
			back = b
		}
	}
	w.retries++
	rel := si.now + 1 + int(back)
	if rel > MaxHorizon {
		rel = MaxHorizon
	}
	w.release = int32(rel) //wormvet:allow horizon -- clamped to MaxHorizon above
	w.key = si.policyKey(rel, int(w.id()))
	w.status = StatusWaiting
	w.streak = 0
	w.woken = false
	w.blockedOn = -1
	si.pendPush(relKey(rel, int(w.id())))
	if m := si.met; m != nil {
		m.Inc(telemetry.CtrFaultRetries)
	}
}

// deadlockDeferred reports whether deadlock declaration must wait: a
// scheduled revival at or beyond the current step may still wake a
// blocked worm (including one whose wake fired in the fold that just
// ran), so "no wake can ever fire" does not yet hold.
//
//wormvet:hotpath
func (si *Sim) deadlockDeferred() bool { return si.now <= si.lastRevive }

// Aborted returns the number of messages abandoned by the fault-retry
// policy so far.
func (si *Sim) Aborted() int { return si.aborted }

// FaultDeadlocked reports whether a detected deadlock formed with dead
// resources still present — the freeze is (at least partly) the
// outage's doing, not a pure virtual-channel cycle.
func (si *Sim) FaultDeadlocked() bool { return si.faultDead }

// FoldFaultTime folds every still-open outage span into the metrics
// registry's per-edge fault-time accumulator, up to the current step.
// Idempotent (the open markers advance to now), and a no-op without a
// fault schedule or metrics registry; Result calls it implicitly, and
// long-lived drivers (the traffic Runner) call it at their own
// reporting boundaries.
func (si *Sim) FoldFaultTime() {
	if si.faultSince == nil || si.met == nil {
		return
	}
	for e, s := range si.faultSince {
		if s >= 0 && int(s) < si.now {
			si.met.EdgeFault(int32(e), int64(si.now)-int64(s)) //wormvet:allow horizon -- e < numEdges
			si.faultSince[e] = int32(si.now)                   //wormvet:allow horizon -- now < maxSteps ≤ MaxHorizon
		}
	}
}
