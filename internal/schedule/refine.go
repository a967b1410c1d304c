package schedule

import (
	"fmt"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
)

// RefineResult records how one refinement step went.
type RefineResult struct {
	Spec       StepSpec
	Attempts   int // resampling rounds used
	FinalR     int // R after any escalation
	Escalated  bool
	NumClasses int // distinct non-empty classes after the step
}

// refiner carries the message set and the scratch that lets every
// resampling round check multiplex sizes without hashing: the messages are
// counting-sorted by class, so each class is one contiguous run, and one
// per-edge counter, zeroed again after each run, does the (edge, class)
// counting a map keyed by that pair used to do.
type refiner struct {
	set  *message.Set
	rnd  *rng.Source
	opts Options

	oldStart []int32 // first byClass slot of each old dense class, plus an end sentinel (fixed per refine)
	bySub    []int32 // message indices sorted by subclass draw (LSD pass 1)
	byClass  []int32 // message indices sorted by new class (LSD pass 2)
	cursor   []int32 // counting-sort cursors, max(r, old classes)+1 entries
	onEdge   []int32 // per edge: messages of the class being swept; all zero between classes
	bad      []bool  // per message: its class is violated this round
}

// refine applies one StepSpec to the coloring: every existing class is
// partitioned into spec.R fresh classes uniformly at random, redrawing (all
// classes, or only violated ones, per the options) until every (edge, new
// class) pair carries at most spec.Mf messages. The coloring slice is
// rewritten in place with new dense class IDs; the number of distinct new
// classes is returned in the result.
func (rf *refiner) refine(color []int, spec StepSpec) (RefineResult, error) {
	res := RefineResult{Spec: spec, FinalR: spec.R}
	n := rf.set.Len()
	if n == 0 {
		return res, nil
	}

	// Remap old colors densely so new class IDs are oldDense*r + j.
	oldDense := densify(color)
	rf.groupByOld(oldDense)
	r := spec.R

	newColor := make([]int, n)
	draw := func(i int) { newColor[i] = oldDense[i]*r + rf.rnd.Intn(r) }
	drawAll := func() {
		for i := 0; i < n; i++ {
			draw(i)
		}
	}
	drawAll()

	attempts := 0
	for {
		attempts++
		if rf.markViolated(oldDense, newColor, r, spec.Mf) == 0 {
			break
		}
		if attempts >= maxAttempts {
			// Escalate: more subclasses make the condition easier. The
			// paper's constants satisfy the LLL so escalation should not
			// trigger with ConstantScale = 1; with aggressive scaling it
			// is the safety valve that keeps Build total.
			r = r + (r+3)/4
			res.Escalated = true
			res.FinalR = r
			attempts = 0
			drawAll()
			continue
		}
		if rf.opts.ResampleWhole {
			drawAll()
			continue
		}
		// Moser–Tardos style: redraw only messages in violated classes.
		for i := 0; i < n; i++ {
			if rf.bad[i] {
				draw(i)
			}
		}
	}
	res.Attempts = attempts
	copy(color, newColor)
	res.NumClasses = len(densifyInPlaceCount(color))
	return res, nil
}

// groupByOld sizes the scratch for this message set and counts the old
// dense classes into oldStart. The grouping is fixed for a whole refine
// call, so every round's second sort pass starts from it.
func (rf *refiner) groupByOld(oldDense []int) {
	n := len(oldDense)
	k := 0
	for _, c := range oldDense {
		if c >= k {
			k = c + 1
		}
	}
	rf.oldStart = grow(rf.oldStart, k+1)
	clear(rf.oldStart)
	for _, c := range oldDense {
		rf.oldStart[c+1]++
	}
	for c := 0; c < k; c++ {
		rf.oldStart[c+1] += rf.oldStart[c]
	}
	rf.bySub = grow(rf.bySub, n)
	rf.byClass = grow(rf.byClass, n)
	rf.bad = grow(rf.bad, n)
	if e := rf.set.G.NumEdges(); len(rf.onEdge) != e {
		rf.onEdge = make([]int32, e)
	}
}

// grow returns s resized to n elements, reusing its storage when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// markViolated sets bad[i] for every message whose new class has some edge
// carrying more than mf of the class's messages, and returns the number of
// such classes. New class IDs are oldDense*r + j, so an LSD counting sort —
// by the draw j, then stably by old class — lists the messages class by
// class in O(n + r + old classes), however sparse the ID space r·(old
// classes) is; each class is then counted onto the per-edge counter and
// wiped off it again.
func (rf *refiner) markViolated(oldDense, newColor []int, r, mf int) int {
	n := len(newColor)
	k := len(rf.oldStart) - 1

	// Pass 1: by subclass draw j = newColor − oldDense·r.
	cur := grow(rf.cursor, max(r, k)+1)
	rf.cursor = cur
	clear(cur[:r+1])
	for i := 0; i < n; i++ {
		cur[newColor[i]-oldDense[i]*r+1]++
	}
	for j := 0; j < r; j++ {
		cur[j+1] += cur[j]
	}
	for i := 0; i < n; i++ {
		j := newColor[i] - oldDense[i]*r
		rf.bySub[cur[j]] = int32(i)
		cur[j]++
	}
	// Pass 2: stably by old class, from the fixed group offsets.
	copy(cur[:k], rf.oldStart[:k])
	for _, i := range rf.bySub[:n] {
		c := oldDense[i]
		rf.byClass[cur[c]] = i
		cur[c]++
	}

	clear(rf.bad[:n])
	violated := 0
	for lo := 0; lo < n; {
		c := newColor[rf.byClass[lo]]
		hi := lo + 1
		for hi < n && newColor[rf.byClass[hi]] == c {
			hi++
		}
		run := rf.byClass[lo:hi]
		over := false
		for _, i := range run {
			for _, e := range rf.set.Msgs[i].Path {
				rf.onEdge[e]++
				if int(rf.onEdge[e]) > mf {
					over = true
				}
			}
		}
		for _, i := range run {
			for _, e := range rf.set.Msgs[i].Path {
				rf.onEdge[e] = 0
			}
		}
		if over {
			violated++
			for _, i := range run {
				rf.bad[i] = true
			}
		}
		lo = hi
	}
	return violated
}

// densify maps arbitrary class IDs to dense 0..k-1 IDs (first-seen order)
// and returns the remapped copy.
func densify(color []int) []int {
	remap := make(map[int]int)
	out := make([]int, len(color))
	for i, c := range color {
		d, ok := remap[c]
		if !ok {
			d = len(remap)
			remap[c] = d
		}
		out[i] = d
	}
	return out
}

// densifyInPlaceCount renumbers color in place to dense IDs and returns the
// remap table (its size is the class count).
func densifyInPlaceCount(color []int) map[int]int {
	remap := make(map[int]int)
	for i, c := range color {
		d, ok := remap[c]
		if !ok {
			d = len(remap)
			remap[c] = d
		}
		color[i] = d
	}
	return remap
}

// validateStep double-checks a finished refinement against the target (used
// by tests and by Build's paranoia mode).
func validateStep(s *message.Set, color []int, mf int) error {
	type key struct {
		e graph.EdgeID
		c int
	}
	counts := make(map[key]int)
	for i := range s.Msgs {
		for _, e := range s.Msgs[i].Path {
			k := key{e, color[i]}
			counts[k]++
			if counts[k] > mf {
				return fmt.Errorf("schedule: class %d has %d > %d messages on edge %d", color[i], counts[k], mf, e)
			}
		}
	}
	return nil
}
