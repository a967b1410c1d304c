package vcsim

// This file implements a second, deliberately independent simulator of
// the paper's router model and differentially tests the optimized
// production simulator against it.
//
// The production simulator exploits worm rigidity: a worm's whole flit
// configuration is a single counter (frontier), and buffer occupancy is
// maintained by interval arithmetic. The reference simulator below makes
// none of those leaps — it tracks every flit as an explicit object,
// derives buffer contents from flit positions on every step, and moves
// flits one by one under the model's literal rules. If the two engines
// ever disagree on any observable (makespan, per-message injection and
// delivery times, stalls, drops, deadlock), one of them misimplements
// the model. The property tests below drive both engines across the
// whole configuration space (B, bandwidth restriction, drop-on-delay,
// deterministic policies, staggered releases).

import (
	"reflect"
	"testing"
	"testing/quick"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
)

// refWorm is the reference engine's per-message state: explicit flit
// positions. positions[j] = number of edges flit j has crossed; flit j
// occupies the buffer at the head of path[positions[j]-1] when
// 1 ≤ positions[j] ≤ len(path)-1.
type refWorm struct {
	path      graph.Path
	l         int
	positions []int
	release   int
	status    Status
	inject    int
	deliver   int
	stalls    int
}

func (w *refWorm) frontier() int { return w.positions[0] }

func (w *refWorm) complete() bool {
	return w.positions[w.l-1] >= len(w.path)
}

// refRun simulates with explicit flits and returns observables in the
// production Result layout (only the fields the differential test
// compares are filled).
func refRun(s *message.Set, release []int, cfg Config) Result {
	n := s.Len()
	worms := make([]*refWorm, n)
	for i := 0; i < n; i++ {
		m := s.Get(message.ID(i))
		rel := 0
		if release != nil {
			rel = release[i]
		}
		worms[i] = &refWorm{
			path:      m.Path,
			l:         m.Length,
			positions: make([]int, m.Length),
			release:   rel,
			inject:    -1,
			deliver:   -1,
		}
	}
	cap := cfg.VirtualChannels
	if cfg.RestrictedBandwidth {
		cap = 1
	}

	// bufOf recomputes buffer contents from scratch — the slow, obviously
	// correct way. It returns, per edge, the set of messages with a flit
	// buffered there.
	bufOf := func() map[graph.EdgeID]map[int]bool {
		buf := make(map[graph.EdgeID]map[int]bool)
		for i, w := range worms {
			if w.status == StatusDropped || w.status == StatusDelivered {
				continue
			}
			for _, p := range w.positions {
				if p >= 1 && p <= len(w.path)-1 {
					e := w.path[p-1]
					if buf[e] == nil {
						buf[e] = make(map[int]bool)
					}
					buf[e][i] = true
				}
			}
		}
		return buf
	}

	res := Result{PerMessage: make([]MessageStats, n)}
	now := 0
	remaining := n
	guard := 0
	for remaining > 0 {
		guard++
		if guard > 1_000_000 {
			panic("reference simulator runaway")
		}
		// Fast-forward if nothing is eligible.
		eligibleAny := false
		next := -1
		for _, w := range worms {
			if w.status == StatusDropped || w.status == StatusDelivered {
				continue
			}
			if w.release <= now {
				eligibleAny = true
				break
			}
			if next < 0 || w.release < next {
				next = w.release
			}
		}
		if !eligibleAny {
			if next < 0 {
				break
			}
			now = next
			continue
		}

		startBuf := bufOf()
		grants := make(map[graph.EdgeID]int)
		crossings := make(map[graph.EdgeID]int)
		moved := false
		dropped := false

		// Deterministic order: (release, id) — matching the production
		// engine's admission order for ArbByID/ArbAge with these inputs.
		order := make([]int, 0, n)
		for i := range worms {
			order = append(order, i)
		}
		if cfg.Arbitration == ArbAge {
			// (release, id) order.
			for a := 1; a < len(order); a++ {
				for b := a; b > 0; b-- {
					wa, wb := worms[order[b-1]], worms[order[b]]
					if wb.release < wa.release {
						order[b-1], order[b] = order[b], order[b-1]
					}
				}
			}
		}

		for _, i := range order {
			w := worms[i]
			if w.status == StatusDropped || w.status == StatusDelivered || w.release > now {
				continue
			}
			d := len(w.path)
			if d == 0 {
				// Same event-time convention as every positive-length
				// path: processed in the step now → now+1, stamped now+1.
				w.status = StatusDelivered
				w.inject, w.deliver = now+1, now+1
				remaining--
				moved = true
				continue
			}
			// Which flits would move? Rigid worm: all flits j with
			// positions[j] < min(d, positions[j-1]) move together; for
			// the literal model, flit j moves iff the header moves, its
			// position is below d, and it has been injected or is next
			// to inject. Compute the move set and its constraints.
			f := w.frontier()
			canMove := true
			var needSlot graph.EdgeID = graph.None
			if f < d-1 {
				e := w.path[f]
				occupants := len(startBuf[e]) + grants[e]
				if startBuf[e][i] {
					panic("reference: worm already buffered at its own frontier")
				}
				if occupants >= cfg.VirtualChannels {
					canMove = false
				} else {
					needSlot = e
				}
			}
			// Bandwidth: every flit that would move crosses one edge.
			var crossed []graph.EdgeID
			if canMove {
				for j := 0; j < w.l; j++ {
					p := w.positions[j]
					if p >= d {
						continue // delivered flit
					}
					if j > 0 && w.positions[j-1] == p {
						break // not yet injected beyond this flit
					}
					// Flit j crosses path[p] this step iff it moves: it
					// moves when it is the header, or the flit ahead is
					// strictly ahead (pipeline hole to fill — for rigid
					// worms the whole train moves).
					if j > 0 && w.positions[j-1] != p+1 {
						panic("reference: worm not contiguous")
					}
					crossed = append(crossed, w.path[p])
					if p == 0 && j == w.l-1 {
						break
					}
				}
				for _, e := range crossed {
					if crossings[e] >= cap {
						canMove = false
						break
					}
				}
			}
			if !canMove {
				if cfg.DropOnDelay {
					w.status = StatusDropped
					w.deliver = -1
					res.PerMessage[i].DropTime = now + 1
					remaining--
					dropped = true
					res.Dropped++
				} else {
					w.stalls++
					res.TotalStalls++
				}
				continue
			}
			// Commit.
			if needSlot != graph.None {
				grants[needSlot]++
			}
			for _, e := range crossed {
				crossings[e]++
			}
			movedFlits := 0
			for j := 0; j < w.l; j++ {
				p := w.positions[j]
				if p >= d {
					continue
				}
				if j > 0 && w.positions[j-1] == p {
					break
				}
				w.positions[j] = p + 1
				movedFlits++
				if p == 0 {
					break // only one flit can leave the source per step
				}
			}
			if movedFlits == 0 {
				panic("reference: advance moved no flits")
			}
			moved = true
			if w.inject < 0 {
				w.inject = now + 1
			}
			if w.complete() {
				w.status = StatusDelivered
				w.deliver = now + 1
				remaining--
				res.Delivered++
			} else {
				w.status = StatusActive
			}
		}
		now++
		if !moved && !dropped {
			res.Deadlocked = true
			break
		}
	}

	last := 0
	for i, w := range worms {
		st := &res.PerMessage[i]
		st.Status = w.status
		st.Release = w.release
		st.InjectTime = w.inject
		st.DeliverTime = w.deliver
		st.Stalls = w.stalls
		if w.deliver > last {
			last = w.deliver
		}
		if st.DropTime > last {
			last = st.DropTime
		}
	}
	// Deadlocked runs report the step the run stopped (the production
	// engine's convention), not the last per-message event.
	if res.Deadlocked && now > last {
		last = now
	}
	res.Steps = last
	// The d==0 bookkeeping above does not pass through res.Delivered.
	res.Delivered = 0
	for i := range res.PerMessage {
		if res.PerMessage[i].Status == StatusDelivered {
			res.Delivered++
		}
	}
	return res
}

// diffConfigs enumerates the model space the differential test covers.
// Every model runs with CheckInvariants on and off: on, the kernel meters
// every crossed edge and re-proves lane-implied bandwidth (see
// Sim.crossings); off, it takes the elided path production runs, and that
// is what the reference engine is compared against.
func diffConfigs() []Config {
	var out []Config
	for _, b := range []int{1, 2, 3} {
		for _, restricted := range []bool{false, true} {
			for _, drop := range []bool{false, true} {
				for _, check := range []bool{true, false} {
					out = append(out, Config{
						VirtualChannels:     b,
						RestrictedBandwidth: restricted,
						DropOnDelay:         drop,
						CheckInvariants:     check,
					})
				}
			}
		}
	}
	return out
}

func compareResults(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Steps != want.Steps || got.Delivered != want.Delivered ||
		got.Dropped != want.Dropped || got.Deadlocked != want.Deadlocked ||
		got.TotalStalls != want.TotalStalls {
		t.Fatalf("%s: aggregate mismatch\n prod: steps=%d del=%d drop=%d dead=%v stalls=%d\n  ref: steps=%d del=%d drop=%d dead=%v stalls=%d",
			label,
			got.Steps, got.Delivered, got.Dropped, got.Deadlocked, got.TotalStalls,
			want.Steps, want.Delivered, want.Dropped, want.Deadlocked, want.TotalStalls)
	}
	for i := range got.PerMessage {
		g, w := got.PerMessage[i], want.PerMessage[i]
		if g.Status != w.Status || g.InjectTime != w.InjectTime || g.DeliverTime != w.DeliverTime || g.Stalls != w.Stalls {
			t.Fatalf("%s: message %d mismatch\n prod: %+v\n  ref: %+v", label, i, g, w)
		}
	}
}

// TestDifferentialLine drives both engines over shared-path contention.
func TestDifferentialLine(t *testing.T) {
	for _, cfg := range diffConfigs() {
		for _, msgs := range []int{1, 2, 5} {
			set := lineSet(t, msgs, 4, 6)
			compareResults(t, cfg.Arbitration.String(),
				Run(set, nil, cfg), refRun(set, nil, cfg))
		}
	}
}

// TestDifferentialButterfly drives both engines over butterfly
// permutations with every config.
func TestDifferentialButterfly(t *testing.T) {
	r := rng.New(31)
	bf := topology.NewButterfly(8)
	set := message.NewSet(bf.G)
	for rep := 0; rep < 3; rep++ {
		for src, dst := range r.Perm(8) {
			set.Add(bf.Input(src), bf.Output(dst), 4, bf.Route(src, dst))
		}
	}
	for _, cfg := range diffConfigs() {
		compareResults(t, "butterfly", Run(set, nil, cfg), refRun(set, nil, cfg))
	}
}

// TestDifferentialRandom is the broad property check: random leveled
// workloads, random configs, staggered releases.
func TestDifferentialRandom(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 8 << (seed % 2)
		bf := topology.NewButterfly(n)
		set := message.NewSet(bf.G)
		releases := []int{}
		m := 2 + r.Intn(3*n)
		for i := 0; i < m; i++ {
			src, dst := r.Intn(n), r.Intn(n)
			set.Add(bf.Input(src), bf.Output(dst), 1+r.Intn(8), bf.Route(src, dst))
			releases = append(releases, r.Intn(20))
		}
		pol := ArbAge
		if r.Bool() {
			pol = ArbByID
		}
		cfg := Config{
			VirtualChannels:     1 + r.Intn(3),
			RestrictedBandwidth: r.Bool(),
			DropOnDelay:         r.Bool(),
			Arbitration:         pol, // both deterministic under staggered releases
			CheckInvariants:     true,
		}
		prod := Run(set, releases, cfg)
		ref := refRun(set, releases, cfg)
		plain := cfg
		plain.CheckInvariants = false // the elided metering path
		if elided := Run(set, releases, plain); !reflect.DeepEqual(prod, elided) {
			t.Logf("seed %d: checked %+v, unchecked %+v", seed, prod, elided)
			return false
		}
		if prod.Steps != ref.Steps || prod.Delivered != ref.Delivered ||
			prod.Dropped != ref.Dropped || prod.TotalStalls != ref.TotalStalls {
			t.Logf("seed %d: prod{steps %d del %d drop %d stalls %d} ref{steps %d del %d drop %d stalls %d}",
				seed, prod.Steps, prod.Delivered, prod.Dropped, prod.TotalStalls,
				ref.Steps, ref.Delivered, ref.Dropped, ref.TotalStalls)
			return false
		}
		for i := range prod.PerMessage {
			if prod.PerMessage[i].DeliverTime != ref.PerMessage[i].DeliverTime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialDeadlock confirms both engines agree on the frozen
// two-worm configuration.
func TestDifferentialDeadlock(t *testing.T) {
	set := deadlockSet()
	cfg := Config{VirtualChannels: 1}
	compareResults(t, "deadlock", Run(set, nil, cfg), refRun(set, nil, cfg))
	cfg2 := Config{VirtualChannels: 2}
	compareResults(t, "resolved", Run(set, nil, cfg2), refRun(set, nil, cfg2))
}
