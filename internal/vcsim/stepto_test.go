package vcsim

// Directed tests for the event-horizon fast-forward API: Sim.NextEventTime
// and Sim.StepTo. The contract is exact — StepTo is byte-for-byte
// equivalent to calling Step in a loop, with the idle spans it jumps being
// provably pure clock — and checkSim holds StepTo-driven twins on both
// steppers to a Step-driven pair at every aligned time on every row of
// TestSimEquivalences; the tests below pin NextEventTime's regimes and
// truncation parity.

import (
	"errors"
	"reflect"
	"testing"
)

// TestNextEventTimeContract pins the three regimes of NextEventTime on a
// hand-built scenario: work now, a pending release later, and nothing at
// all — plus the idle-jump arithmetic of StepTo against each.
func TestNextEventTimeContract(t *testing.T) {
	set, releases := fuzzWorkload(3, 0, 4)
	si, err := NewSim(set.G, Config{VirtualChannels: 2, MaxSteps: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if got := si.NextEventTime(); got != -1 {
		t.Fatalf("empty sim NextEventTime = %d, want -1", got)
	}
	// StepTo on an empty sim is a pure clock jump.
	if err := si.StepTo(100); err != nil || si.Now() != 100 {
		t.Fatalf("empty StepTo(100): err %v, now %d", err, si.Now())
	}
	msg := set.Get(0)
	if _, err := si.Inject(msg, 150); err != nil {
		t.Fatal(err)
	}
	if got := si.NextEventTime(); got != 150 {
		t.Fatalf("pending-only NextEventTime = %d, want 150", got)
	}
	// A jump short of the release stays idle; one past it does real work.
	if err := si.StepTo(140); err != nil || si.Now() != 140 {
		t.Fatalf("StepTo(140): err %v, now %d", err, si.Now())
	}
	if err := si.StepTo(151); err != nil || si.Now() != 151 {
		t.Fatalf("StepTo(151): err %v, now %d", err, si.Now())
	}
	if got := si.NextEventTime(); got != si.Now() {
		t.Fatalf("in-flight NextEventTime = %d, want %d", got, si.Now())
	}
	_ = releases
}

// TestStepToHorizon pins truncation parity: a StepTo past MaxSteps stops
// at the horizon with ErrHorizon and a Truncated result, exactly like a
// Step loop.
func TestStepToHorizon(t *testing.T) {
	set, _ := fuzzWorkload(5, 0, 3)
	build := func() *Sim {
		si, err := NewSim(set.G, Config{VirtualChannels: 1, MaxSteps: 64})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := si.Inject(set.Get(0), 200); err != nil { // beyond the horizon
			t.Fatal(err)
		}
		return si
	}
	jumper := build()
	errJ := jumper.StepTo(500)
	stepper := build()
	var errS error
	for errS == nil {
		errS = stepper.Step()
	}
	if !errors.Is(errJ, ErrHorizon) || !errors.Is(errS, ErrHorizon) {
		t.Fatalf("horizon errors: jump %v, step %v", errJ, errS)
	}
	if jumper.Now() != stepper.Now() || !jumper.Truncated() || !stepper.Truncated() {
		t.Fatalf("horizon state: jump now=%d trunc=%v, step now=%d trunc=%v",
			jumper.Now(), jumper.Truncated(), stepper.Now(), stepper.Truncated())
	}
	if !reflect.DeepEqual(jumper.Result(), stepper.Result()) {
		t.Fatal("truncated results differ between StepTo and Step loop")
	}
}
