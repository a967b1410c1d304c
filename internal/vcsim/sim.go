package vcsim

// This file is the incremental (open-loop) lifecycle of the Sim engine:
// construction over a bare network, streaming injection, single-step and
// fast-forward advancement, and terminal-state inspection. The step
// machinery itself lives in vcsim.go and is shared verbatim with the
// batch Run wrapper, so the two modes cannot drift apart.

import (
	"errors"

	"wormhole/internal/graph"
	"wormhole/internal/message"
)

var (
	// ErrNoHorizon is returned by NewSim when Config.MaxSteps is zero. The
	// batch wrapper can derive a safe bound from its finite workload, but
	// an open-loop simulation has no workload to derive a bound from —
	// messages stream in — so the horizon must be explicit.
	ErrNoHorizon = errors.New("vcsim: incremental simulation requires an explicit Config.MaxSteps horizon")
	// ErrHorizon is returned by Step once the MaxSteps horizon is reached;
	// the result is marked Truncated.
	ErrHorizon = errors.New("vcsim: MaxSteps horizon reached")
	// ErrDeadlocked is returned by Step once a deadlock has frozen the
	// network: every eligible worm is slot-blocked, and slots only free
	// when worms move, so no future injection can help.
	ErrDeadlocked = errors.New("vcsim: network is deadlocked")

	// The validation family below is one error contract for both ways in:
	// NewSim and Inject return these wrapped with context, and the batch
	// Run panics with the same wrapped values (ValidateConfig and spawn
	// produce them for both). Services in front of the simulator match
	// with errors.Is to map a tenant's bad workload to a client error
	// instead of crashing the job.

	// ErrBadConfig wraps every Config rejection: VirtualChannels < 1 or
	// above MaxLanes, a VirtualChannels × LaneDepth pool past 32 bits,
	// a negative LaneDepth.
	ErrBadConfig = errors.New("vcsim: invalid configuration")
	// ErrOverHorizon wraps every rejection of a time or size above
	// MaxHorizon: release times, message lengths, path lengths, and
	// Config.MaxSteps (the engine keeps event times in 32-bit counters).
	ErrOverHorizon = errors.New("vcsim: exceeds the MaxHorizon limit")
	// ErrPastRelease wraps Inject's rejection of a release time before
	// the simulator's current step.
	ErrPastRelease = errors.New("vcsim: release time is in the past")
	// ErrBadMessage wraps per-message rejections that are neither horizon
	// nor config problems: non-positive lengths, out-of-range path edges,
	// a release list whose length does not match the message set.
	ErrBadMessage = errors.New("vcsim: invalid message")
)

// NewSim returns an empty incremental simulator over the network g.
// Unlike the batch Run wrapper, cfg.MaxSteps must be set explicitly: with
// messages streaming in there is no workload to derive a safe bound from,
// so a zero horizon is rejected with ErrNoHorizon rather than guessed at.
func NewSim(g *graph.Graph, cfg Config) (*Sim, error) {
	if err := ValidateConfig(g.NumEdges(), cfg); err != nil {
		return nil, err
	}
	if cfg.MaxSteps <= 0 {
		return nil, ErrNoHorizon
	}
	si := emptySim(g.NumEdges(), cfg)
	si.recycle = true
	return si, nil
}

// Inject adds one message to the simulation with the given release time
// and returns its ID. IDs are dense and assigned in injection order, so
// they double as indices into Result().PerMessage. The release time must
// not lie in the past (release ≥ Now()); the message becomes eligible in
// the first step at or after its release, exactly like a batch release
// list entry.
func (si *Sim) Inject(msg message.Message, release int) (message.ID, error) {
	id, err := si.spawn(msg, release)
	if err != nil {
		return -1, err
	}
	si.pendPush(relKey(release, id))
	return message.ID(id), nil
}

// tick is the one way the clock moves, behind Step, StepTo and Drain: a
// frozen or out-of-horizon simulator refuses; an idle span is jumped in
// one go, up to limit (see NextEventTime for why that is exact); otherwise
// released messages are admitted and one real step runs. A limit at or
// before Now() forbids the jump, so the call is exactly one step.
//
//wormvet:hotpath
func (si *Sim) tick(limit int) error {
	if si.deadlocked {
		return ErrDeadlocked
	}
	if si.now >= si.maxSteps {
		si.truncated = true
		return ErrHorizon
	}
	if next := si.NextEventTime(); next != si.now && limit > si.now {
		// Every step up to min(next, limit) — or all the way to limit
		// when nothing is pending — would be pure clock. Jump, but never
		// past the horizon the check above enforces step by step: a
		// release beyond MaxSteps truncates the run there.
		if next < 0 || next > limit {
			next = limit
		}
		if next > si.maxSteps {
			next = si.maxSteps
		}
		if m := si.met; m != nil {
			m.Jump(int64(next - si.now))
		}
		si.now = next
		return nil
	}
	si.admit()
	si.step()
	if si.deadlocked {
		return ErrDeadlocked
	}
	return nil
}

// Step advances the simulation by exactly one flit step, admitting
// released messages and moving eligible worms. A step with no eligible
// messages is an idle step: time advances and nothing else happens, which
// is how open-loop drivers model real time between arrivals. Step returns
// ErrHorizon once Now() has reached the MaxSteps horizon (marking the
// result Truncated) and ErrDeadlocked once a deadlock has been detected —
// including the step that detects it.
//
//wormvet:hotpath
func (si *Sim) Step() error { return si.tick(si.now) }

// NextEventTime returns the earliest flit step at or after Now() whose
// step can be anything but a pure idle step (one that only advances the
// clock): Now() itself while any worm is in flight or already admissible,
// the earliest pending release when the network is otherwise empty, and
// -1 when nothing is in flight or pending — no future step can do
// anything until a new message is injected. A deadlocked simulator
// likewise returns -1: its frozen worms never move again.
//
// The contract is exact, not heuristic: a step strictly before the
// returned time moves no worm, fires no event, and changes nothing but
// Now() — which is what lets StepTo jump the clock across the gap with
// byte-identical results (pinned by the fast-forward differential tests
// and the fuzz harness).
//
//wormvet:hotpath
func (si *Sim) NextEventTime() int {
	if si.deadlocked {
		return -1
	}
	if si.inFlight() > 0 {
		return si.now
	}
	if si.pendLen() > 0 {
		if r := keyRelease(si.pendFirst()); r > si.now {
			return r
		}
		return si.now
	}
	return -1
}

// StepTo advances the simulation until Now() == t, executing real steps
// while work exists and fast-forwarding the clock across idle spans (see
// NextEventTime) instead of burning a step apiece on them. It is
// behaviorally identical to calling Step in a loop until Now() reaches t
// — same results, same errors, byte for byte — just cheaper when the
// network sits empty for stretches, as open-loop drivers at light load
// and drain windows do. A t at or before Now() is a no-op.
//
//wormvet:hotpath
func (si *Sim) StepTo(t int) error {
	for si.now < t {
		if err := si.tick(t); err != nil {
			return err
		}
	}
	return nil
}

// Drain runs the simulation until every injected message has completed,
// a deadlock freezes the network (Deadlocked), or the MaxSteps horizon is
// exceeded (Truncated). Unlike repeated Step calls, Drain fast-forwards
// across gaps where no message is eligible, so idle time costs nothing;
// batch Run is exactly load-everything-then-Drain.
//
//wormvet:hotpath
func (si *Sim) Drain() {
	for {
		t := si.NextEventTime()
		if t < 0 || si.StepTo(t+1) != nil {
			return
		}
	}
}

// Now returns the current flit step.
func (si *Sim) Now() int { return si.now }

// Active returns the number of injected messages that have not yet
// completed: worms in flight plus worms waiting on their release time.
// After a deadlock it counts the frozen worms, which never complete.
// Messages abandoned by the fault-retry policy no longer count.
func (si *Sim) Active() int { return si.numWorms - si.delivered - si.dropped - si.aborted }

// Injected returns the total number of messages injected so far.
func (si *Sim) Injected() int { return si.numWorms }

// Delivered returns the number of fully delivered messages so far.
func (si *Sim) Delivered() int { return si.delivered }

// Dropped returns the number of messages discarded by drop-on-delay.
func (si *Sim) Dropped() int { return si.dropped }

// Deadlocked reports whether a deadlock has frozen the network.
func (si *Sim) Deadlocked() bool { return si.deadlocked }

// Truncated reports whether the MaxSteps horizon was reached.
func (si *Sim) Truncated() bool { return si.truncated }
