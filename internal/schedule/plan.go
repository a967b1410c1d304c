// Package schedule implements the paper's Section 2.1 scheduling machinery:
// the Lemma 2.1.5 color refinement (three cases), the Theorem 2.1.6
// refinement pipeline that reduces multiplex size from C down to B, and the
// release-time schedule derived from the final coloring (color class i is
// released at time (i−1)·(L+D−1), so no message ever blocks).
//
// The paper's existence proof is nonconstructive (Lovász Local Lemma). We
// realize it constructively by rejection resampling: draw the same random
// partition the proof draws, check the multiplex condition, and redraw on
// failure — either the whole refinement or only the violated classes
// (Moser–Tardos style). The LLL guarantees each draw succeeds with positive
// probability, and in practice a handful of attempts suffice.
package schedule

import (
	"fmt"
	"math"
)

// CaseID names which condition of Lemma 2.1.5 a refinement step applies.
type CaseID int8

const (
	// Case1 refines multiplex size ms ≤ log D down to B
	// (condition 1: r = 3e(D·ms)^(1/B)·ms/B).
	Case1 CaseID = 1
	// Case2 refines D ≥ ms > log D down to log D
	// (condition 2: r = 32e·ms/log D).
	Case2 CaseID = 2
	// Case3 refines ms > D down to max(D, 15·ln³ ms)
	// (condition 3: r = ms/((1−1/ln ms)·mf)).
	Case3 CaseID = 3
)

func (c CaseID) String() string { return fmt.Sprintf("case%d", int8(c)) }

// StepSpec describes one refinement step of the pipeline: each existing
// color class is split into R new classes, reducing multiplex size from Ms
// to at most Mf.
type StepSpec struct {
	Case CaseID
	Ms   int // multiplex size before the step
	Mf   int // multiplex target after the step
	R    int // subclasses per existing class
}

// Options tunes the pipeline.
type Options struct {
	// B is the number of virtual channels (multiplex target). Must be ≥ 1.
	B int
	// ConstantScale scales the paper's leading constants (3e, 32e, …) in
	// the subclass counts R. 1.0 reproduces the paper exactly; smaller
	// values produce shorter schedules and rely on escalation when the
	// draw fails. Must be > 0; 0 means 1.0.
	ConstantScale float64
	// ResampleWhole redraws the entire refinement on failure instead of
	// only the violated classes (ablation knob; violated-only is default
	// and much faster).
	ResampleWhole bool
}

// maxAttempts bounds resampling iterations per refinement step before R
// is escalated by 25%.
const maxAttempts = 64

func (o Options) withDefaults() Options {
	if o.B < 1 {
		panic(fmt.Sprintf("schedule: B %d < 1", o.B))
	}
	if o.ConstantScale == 0 {
		o.ConstantScale = 1.0
	}
	if o.ConstantScale < 0 {
		panic("schedule: negative ConstantScale")
	}
	return o
}

// Plan returns the sequence of refinement steps Theorem 2.1.6 prescribes
// for congestion C, dilation D, and B virtual channels. An empty plan means
// the messages already satisfy multiplex size ≤ B (C ≤ B).
//
// The three regimes of the theorem:
//   - C ≤ log D: a single Case1 step (C → B);
//   - log D < C ≤ D: Case2 (C → log D) then Case1 (log D → B);
//   - C > D: iterated Case3 (C → … → D), then Case2, then Case1.
func Plan(c, d, b int, scale float64) []StepSpec {
	if scale <= 0 {
		scale = 1.0
	}
	if c <= b {
		return nil
	}
	// Guard the logarithms for tiny instances: treat log D as at least 1.
	ld := math.Log2(float64(max(d, 2)))
	var steps []StepSpec
	ms := c

	// Phase A (Case 3): bring ms down to ≤ D.
	for ms > d && ms > b {
		lnMs := math.Log(float64(ms))
		mf := int(math.Ceil(15 * lnMs * lnMs * lnMs))
		if mf < d {
			mf = d
		}
		if mf >= ms {
			// 15·ln³ ms has overtaken ms (small instances): the step
			// cannot shrink anything; fall through to phase B with D as
			// the effective target via a plain halving-style Case3 step.
			mf = max(d, b)
			if mf >= ms {
				break
			}
		}
		r := int(math.Ceil(scale * float64(ms) / ((1 - 1/lnMs) * float64(mf))))
		if r < 2 {
			r = 2
		}
		steps = append(steps, StepSpec{Case: Case3, Ms: ms, Mf: mf, R: r})
		ms = mf
	}

	// Phase B (Case 2): bring ms down to ≤ max(log D, B).
	t2 := max(int(math.Ceil(ld)), b)
	if ms > t2 {
		r := int(math.Ceil(scale * 32 * math.E * float64(ms) / float64(t2)))
		if r < 2 {
			r = 2
		}
		steps = append(steps, StepSpec{Case: Case2, Ms: ms, Mf: t2, R: r})
		ms = t2
	}

	// Phase C (Case 1): bring ms down to B.
	if ms > b {
		pow := math.Pow(float64(d)*float64(ms), 1/float64(b))
		r := int(math.Ceil(scale * 3 * math.E * pow * float64(ms) / float64(b)))
		if r < 2 {
			r = 2
		}
		steps = append(steps, StepSpec{Case: Case1, Ms: ms, Mf: b, R: r})
	}
	return steps
}

// --- closed-form bound evaluators -------------------------------------------
//
// These evaluate the theorem statements (without their hidden constants) so
// experiments can compare measured values against the predicted shapes.

// UpperBound216 evaluates Theorem 2.1.6's schedule-length bound in flit
// steps: (L+D)·C·(D·C)^(1/B)/B when C ≤ log D, else
// (L+D)·C·(D·log D)^(1/B)/B.
func UpperBound216(l, c, d, b int) float64 {
	ld := math.Log2(float64(max(d, 2)))
	inner := float64(d) * ld
	if float64(c) <= ld {
		inner = float64(d) * float64(c)
	}
	return float64(l+d) * float64(c) * math.Pow(inner, 1/float64(b)) / float64(b)
}

// LowerBound221 evaluates Theorem 2.2.1's lower bound in flit steps:
// L·C·D^(1/B)/B.
func LowerBound221(l, c, d, b int) float64 {
	return float64(l) * float64(c) * math.Pow(float64(d), 1/float64(b)) / float64(b)
}

// NaiveBound evaluates the footnote-5 coloring bound: (L+D)·C·D flit steps.
func NaiveBound(l, c, d int) float64 {
	return float64(l+d) * float64(c) * float64(d)
}

// StoreAndForwardBound evaluates the Leighton–Maggs–Rao store-and-forward
// bound translated to flit steps: L·(C+D).
func StoreAndForwardBound(l, c, d int) float64 {
	return float64(l) * float64(c+d)
}

// PredictedSpeedup returns the superlinear speedup factor the paper
// attributes to B virtual channels relative to B = 1: B·D^(1−1/B).
func PredictedSpeedup(d, b int) float64 {
	return float64(b) * math.Pow(float64(d), 1-1/float64(b))
}
