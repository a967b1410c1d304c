// Package fault defines deterministic fault schedules for the wormhole
// simulator: scripted kill/revive events against individual virtual-
// channel lanes or whole physical edges, applied at exact flit steps.
//
// A Schedule is pure data — a step-ordered event list — so it serializes
// into checkpoints, compares for config-digest purposes, and replays
// byte-identically on every stepper. Schedules come from three places:
//
//   - Parse, a compact text grammar ("edge:12@100-200 lane:7@50-90")
//     for CLI flags and service job specs;
//   - Generate, a seed-derived random outage process (internal/rng)
//     whose outage sets are *nested* across rates: every outage present
//     at rate r is present at every rate r' ≥ r, which is what makes
//     measured degradation monotone in the fault rate by construction
//     rather than by statistical luck;
//   - literal construction in tests.
//
// The simulator consumes events in (Step, Edge, Kind) order. Killing a
// lane removes one credit from the edge (taking effect as occupants
// drain — flits in flight are never destroyed); killing an edge marks
// the whole edge dead so no worm extends onto it. Revivals restore the
// credit or clear the dead mark. See vcsim's "Fault plane" comment for
// the engine-side semantics.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wormhole/internal/rng"
)

// Kind is a fault event type.
type Kind uint8

const (
	// KillLane removes one virtual-channel credit from the edge. B kills
	// on a B-lane edge leave it granting nothing — equivalent to a dead
	// edge for new traffic, though worms already holding lanes drain.
	KillLane Kind = iota
	// ReviveLane restores one previously killed lane credit.
	ReviveLane
	// KillEdge marks the whole edge dead: no worm extends onto it while
	// dead, whatever the credit state.
	KillEdge
	// ReviveEdge clears the dead mark.
	ReviveEdge
	numKinds
)

var kindNames = [numKinds]string{"kill-lane", "revive-lane", "kill-edge", "revive-edge"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault action.
type Event struct {
	Step int  // flit step at which the event takes effect
	Edge int  // physical edge index
	Kind Kind // what happens
}

// Schedule is a step-ordered fault event list. The zero value (nil) is
// the empty schedule; simulators treat it as "no fault plane attached"
// and keep their fault-free hot path.
type Schedule []Event

// ErrBadSchedule wraps every Validate and Parse failure.
var ErrBadSchedule = errors.New("fault: bad schedule")

// Sort orders the schedule by (Step, Edge, Kind), the order the
// simulator consumes events in. Construction helpers call it; callers
// building schedules by hand should too.
func (s Schedule) Sort() {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Step != s[j].Step {
			return s[i].Step < s[j].Step
		}
		if s[i].Edge != s[j].Edge {
			return s[i].Edge < s[j].Edge
		}
		return s[i].Kind < s[j].Kind
	})
}

// Validate checks the schedule against a network with numEdges edges and
// b lanes per edge: events ordered, edges in range, kinds known, steps
// non-negative, and the running per-edge state sane — never more than b
// lanes dead at once, no revive without a matching kill, no double
// edge-kill without an intervening revive.
func (s Schedule) Validate(numEdges, b int) error {
	lanesDead := map[int]int{}
	edgeDead := map[int]bool{}
	prev := Event{Step: -1, Edge: -1}
	for i, ev := range s {
		if ev.Step < 0 {
			return fmt.Errorf("%w: event %d has negative step %d", ErrBadSchedule, i, ev.Step)
		}
		if ev.Edge < 0 || ev.Edge >= numEdges {
			return fmt.Errorf("%w: event %d edge %d out of range [0, %d)", ErrBadSchedule, i, ev.Edge, numEdges)
		}
		if ev.Kind >= numKinds {
			return fmt.Errorf("%w: event %d has unknown kind %d", ErrBadSchedule, i, ev.Kind)
		}
		if ev.Step < prev.Step || (ev.Step == prev.Step && ev.Edge < prev.Edge) {
			return fmt.Errorf("%w: event %d out of (step, edge) order — call Sort", ErrBadSchedule, i)
		}
		prev = ev
		switch ev.Kind {
		case KillLane:
			if lanesDead[ev.Edge]++; lanesDead[ev.Edge] > b {
				return fmt.Errorf("%w: event %d kills lane %d of edge %d (B=%d)", ErrBadSchedule, i, lanesDead[ev.Edge], ev.Edge, b)
			}
		case ReviveLane:
			if lanesDead[ev.Edge]--; lanesDead[ev.Edge] < 0 {
				return fmt.Errorf("%w: event %d revives a lane of edge %d with none dead", ErrBadSchedule, i, ev.Edge)
			}
		case KillEdge:
			if edgeDead[ev.Edge] {
				return fmt.Errorf("%w: event %d kills edge %d twice", ErrBadSchedule, i, ev.Edge)
			}
			edgeDead[ev.Edge] = true
		case ReviveEdge:
			if !edgeDead[ev.Edge] {
				return fmt.Errorf("%w: event %d revives edge %d which is not dead", ErrBadSchedule, i, ev.Edge)
			}
			edgeDead[ev.Edge] = false
		}
	}
	return nil
}

// LastRevive returns the largest step carrying a revive event, or -1
// when the schedule revives nothing. While the simulator clock is at or
// before this step, an apparent deadlock may still be broken by a
// scheduled revival, so deadlock declaration is deferred past it.
func (s Schedule) LastRevive() int {
	last := -1
	for _, ev := range s {
		if (ev.Kind == ReviveLane || ev.Kind == ReviveEdge) && ev.Step > last {
			last = ev.Step
		}
	}
	return last
}

// Parse reads the compact outage grammar: a whitespace-separated list of
//
//	edge:E@START-END    kill edge E at START, revive it at END
//	edge:E@START        kill edge E at START, never revive
//	lane:E@START-END    kill one lane of edge E at START, revive at END
//	lane:E@START        kill one lane of edge E at START, never revive
//
// Repeating a lane outage stacks kills on the same edge (up to B; that
// bound is checked by Validate, which Parse does not call — edge counts
// are not known here). The returned schedule is sorted.
func Parse(text string) (Schedule, error) {
	var s Schedule
	for _, tok := range strings.Fields(text) {
		kind, rest, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("%w: %q is not kind:edge@window", ErrBadSchedule, tok)
		}
		var kill, revive Kind
		switch kind {
		case "edge":
			kill, revive = KillEdge, ReviveEdge
		case "lane":
			kill, revive = KillLane, ReviveLane
		default:
			return nil, fmt.Errorf("%w: unknown fault kind %q in %q (want edge or lane)", ErrBadSchedule, kind, tok)
		}
		edgeStr, window, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("%w: %q has no @window", ErrBadSchedule, tok)
		}
		edge, err := strconv.Atoi(edgeStr)
		if err != nil || edge < 0 {
			return nil, fmt.Errorf("%w: bad edge %q in %q", ErrBadSchedule, edgeStr, tok)
		}
		startStr, endStr, hasEnd := strings.Cut(window, "-")
		start, err := strconv.Atoi(startStr)
		if err != nil || start < 0 {
			return nil, fmt.Errorf("%w: bad start step %q in %q", ErrBadSchedule, startStr, tok)
		}
		s = append(s, Event{Step: start, Edge: edge, Kind: kill})
		if hasEnd {
			end, err := strconv.Atoi(endStr)
			if err != nil || end <= start {
				return nil, fmt.Errorf("%w: bad end step %q in %q (want end > start)", ErrBadSchedule, endStr, tok)
			}
			s = append(s, Event{Step: end, Edge: edge, Kind: revive})
		}
	}
	s.Sort()
	return s, nil
}

// String renders the schedule back into the Parse grammar: each kill is
// paired with the first later matching revive on its edge. Unpaired
// revives (never produced by Parse or Generate) render as explicit
// "kind!edge@step" tokens; the output is for logs and job listings.
func (s Schedule) String() string {
	var b strings.Builder
	used := make([]bool, len(s))
	first := true
	emit := func(tok string) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(tok)
	}
	for i, ev := range s {
		if used[i] {
			continue
		}
		switch ev.Kind {
		case KillEdge, KillLane:
			want := ReviveEdge
			name := "edge"
			if ev.Kind == KillLane {
				want, name = ReviveLane, "lane"
			}
			end := -1
			for j := i + 1; j < len(s); j++ {
				if !used[j] && s[j].Edge == ev.Edge && s[j].Kind == want {
					end = j
					break
				}
			}
			if end >= 0 {
				used[end] = true
				emit(fmt.Sprintf("%s:%d@%d-%d", name, ev.Edge, ev.Step, s[end].Step))
			} else {
				emit(fmt.Sprintf("%s:%d@%d", name, ev.Edge, ev.Step))
			}
		case ReviveEdge, ReviveLane:
			emit(fmt.Sprintf("%s!%d@%d", ev.Kind, ev.Edge, ev.Step))
		}
	}
	return b.String()
}

// MarshalText and UnmarshalText carry a schedule through JSON as its
// String / Parse grammar (wormholed's "faults").
func (s Schedule) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

func (s *Schedule) UnmarshalText(text []byte) (err error) {
	*s, err = Parse(string(text))
	return err
}

// GenConfig parameterizes Generate.
type GenConfig struct {
	// Seed drives the outage process. The candidate outage set is a
	// function of (Seed, NumEdges, Horizon, MeanOutage) only — Rate
	// merely thins it — so schedules at different rates with the same
	// seed are nested (coupled): raising Rate strictly adds outages.
	Seed uint64
	// NumEdges is the network's physical edge count.
	NumEdges int
	// Horizon bounds outage start steps to [0, Horizon).
	Horizon int
	// Rate is the per-edge probability of suffering an outage over the
	// horizon, in [0, 1]. Rate 0 returns an empty (nil) schedule.
	Rate float64
	// MeanOutage is the mean outage length in steps (default 100).
	// Actual lengths are uniform in [1, 2·MeanOutage).
	MeanOutage int
	// Lanes generates lane kills instead of whole-edge kills: each
	// outage kills this many lanes of the edge for its window (capped by
	// the simulator's B at Validate time). 0 means whole-edge outages.
	Lanes int
}

// Generate builds a random outage schedule by thinning: every edge draws
// one candidate outage (start, length, inclusion level u ~ U[0,1)) from
// the seed stream, and the outage is included iff u < Rate. Because the
// candidate draw does not depend on Rate, the included sets are nested
// across rates — the coupling that makes throughput-vs-fault-rate
// curves monotone by construction. The returned schedule is sorted and
// valid for any B > Lanes·0 (lane outages need B ≥ Lanes).
func Generate(cfg GenConfig) Schedule {
	if cfg.Rate <= 0 || cfg.NumEdges <= 0 || cfg.Horizon <= 0 {
		return nil
	}
	mean := cfg.MeanOutage
	if mean <= 0 {
		mean = 100
	}
	r := rng.New(cfg.Seed)
	var s Schedule
	for e := 0; e < cfg.NumEdges; e++ {
		// Fixed draw order per edge, independent of Rate: inclusion
		// level, start, length. Every edge consumes the same number of
		// draws whether included or not, so the stream stays aligned.
		u := r.Float64()
		start := r.Intn(cfg.Horizon)
		length := 1 + r.Intn(2*mean-1)
		if u >= cfg.Rate {
			continue
		}
		end := start + length
		if cfg.Lanes > 0 {
			for l := 0; l < cfg.Lanes; l++ {
				s = append(s, Event{Step: start, Edge: e, Kind: KillLane})
				s = append(s, Event{Step: end, Edge: e, Kind: ReviveLane})
			}
		} else {
			s = append(s, Event{Step: start, Edge: e, Kind: KillEdge})
			s = append(s, Event{Step: end, Edge: e, Kind: ReviveEdge})
		}
	}
	s.Sort()
	return s
}
