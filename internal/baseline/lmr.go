package baseline

import (
	"fmt"

	"wormhole/internal/analysis"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
)

// LMRSchedule is a delay-smoothed store-and-forward schedule in the
// spirit of Leighton–Maggs–Rao (paper Section 1.3.1): each message gets
// an initial delay, after which it moves one edge per message step
// without ever stopping. A schedule is valid when no edge carries two
// messages in the same step; validity is certified at construction.
type LMRSchedule struct {
	Delays   []int // per-message initial delay in message steps
	Makespan int   // message steps until the last arrival
	C, D     int
	Window   int // the delay window the sampler converged to
	Attempts int // rejection-sampling rounds used
}

// BuildLMRSchedule assigns initial delays by per-message randomized
// placement: each message samples delays from the current window until
// its whole unimpeded trajectory is collision-free against everything
// placed so far, widening the window when a message cannot be placed
// (Moser–Tardos-style local resampling rather than whole-schedule
// rejection, which cannot converge beyond toy sizes). The LMR theorem
// guarantees O(C+D)-step schedules exist; the placement loop finds
// certified ones whose makespan ≤ window + D, with windows that stay
// Θ(C) on every workload exercised in the tests. The result is stronger
// than the theorem needs: messages never stop at all, so no queue forms.
func BuildLMRSchedule(s *message.Set, r *rng.Source) (*LMRSchedule, error) {
	const maxAttempts = 64 // draws per message before its window widens
	c := analysis.Congestion(s)
	d := analysis.Dilation(s)
	n := s.Len()
	if n == 0 {
		return &LMRSchedule{C: c, D: d, Window: 1}, nil
	}

	window := c
	if window < 1 {
		window = 1
	}
	attempts := 0
	type slot struct {
		e graph.EdgeID
		t int
	}
	used := make(map[slot]bool, n*d)
	delays := make([]int, n)
	place := func(i, delay int) bool {
		for hop, e := range s.Msgs[i].Path {
			if used[slot{e, delay + hop}] {
				return false
			}
		}
		for hop, e := range s.Msgs[i].Path {
			used[slot{e, delay + hop}] = true
		}
		delays[i] = delay
		return true
	}

	for i := 0; i < n; i++ {
		placed := false
		for !placed {
			for try := 0; try < maxAttempts; try++ {
				attempts++
				if place(i, r.Intn(window)) {
					placed = true
					break
				}
			}
			if placed {
				break
			}
			// This message cannot find a free trajectory: widen the
			// window. Already-placed messages keep their delays.
			window += (window + 1) / 2
			if window > 64*(c+d)+64 {
				return nil, fmt.Errorf("baseline: LMR placement failed to converge (C=%d D=%d window=%d)", c, d, window)
			}
		}
	}

	makespan := 0
	for i := 0; i < n; i++ {
		if end := delays[i] + len(s.Msgs[i].Path); end > makespan {
			makespan = end
		}
	}
	return &LMRSchedule{
		Delays:   delays,
		Makespan: makespan,
		C:        c, D: d,
		Window:   window,
		Attempts: attempts,
	}, nil
}

// VerifyLMR re-checks a schedule against its message set: unimpeded
// motion must never put two messages on one edge in one step. It returns
// the makespan in message steps.
func VerifyLMR(s *message.Set, sched *LMRSchedule) (int, error) {
	if len(sched.Delays) != s.Len() {
		return 0, fmt.Errorf("baseline: %d delays for %d messages", len(sched.Delays), s.Len())
	}
	type slot struct {
		e graph.EdgeID
		t int
	}
	used := make(map[slot]bool)
	makespan := 0
	for i := 0; i < s.Len(); i++ {
		for hop, e := range s.Msgs[i].Path {
			k := slot{e, sched.Delays[i] + hop}
			if used[k] {
				return 0, fmt.Errorf("baseline: edge %d double-booked at step %d", e, sched.Delays[i]+hop)
			}
			used[k] = true
		}
		if end := sched.Delays[i] + len(s.Msgs[i].Path); end > makespan {
			makespan = end
		}
	}
	return makespan, nil
}

// LMRFlitSteps converts an LMR makespan to flit steps (message step =
// L flit steps, per the paper's accounting).
func LMRFlitSteps(sched *LMRSchedule, l int) int { return sched.Makespan * l }
