package vcsim

// Fault-plane determinism suite. The fault schedule is first-class
// simulator state, so it is held to the same bar as every other feature:
// checkSim (fuzz_test.go) holds generated outage schedules and the directed
// scenarios below to the naive scan, StepTo, Reset and snapshot cuts —
// inside an outage, inside a retry backoff — on the fault rows of
// TestSimEquivalences. The tests here pin what the scenarios must do: a
// freeze that a scheduled revival would break is never declared dead, and
// a freeze formed around dead resources is flagged as the outage's doing.

import (
	"bytes"
	"slices"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/message"
	"wormhole/internal/topology"
)

// faultRetryDefaults is the retry policy used across this suite: small
// base so retries resolve quickly, a handful of attempts so both the
// succeed-after-revival and the abort paths get exercised.
var faultRetryDefaults = RetryPolicy{MaxAttempts: 3, Backoff: 4, BackoffCap: 32}

// faultFixture is a directed fault scenario: one 4-flit worm 0→3 on a
// 4-node line at B = 1, whose hop-th edge is killed at step 0 — the whole
// edge, or its only lane — and revived at step revive (0: never).
type faultFixture struct {
	name   string
	hop    int
	lane   bool
	revive int
	retry  RetryPolicy
}

var faultScenarios = []faultFixture{
	{"dead-forever", 1, false, 0, faultRetryDefaults},
	{"dead-then-revived", 1, false, 50, faultRetryDefaults},
	{"lane-kill-revived", 1, true, 40, faultRetryDefaults},
	{"retry-abort", 0, false, 1000, faultRetryDefaults},
	{"retry-success", 0, false, 8, faultRetryDefaults},
	{"no-retry-park", 0, false, 8, RetryPolicy{}},
	{"long-backoff", 0, false, 40, RetryPolicy{MaxAttempts: 8, Backoff: 4, BackoffCap: 16}},
}

// faultScenario builds the named fault fixture's workload and config.
func faultScenario(name string) (*message.Set, []int, Config) {
	sc := faultScenarios[slices.IndexFunc(faultScenarios, func(s faultFixture) bool { return s.name == name })]
	g := topology.NewLinearArray(4)
	path := message.ShortestPathRouter(g)(0, 3)
	set := message.NewSet(g)
	set.Add(0, 3, 4, path)
	kill, revive := fault.KillEdge, fault.ReviveEdge
	if sc.lane {
		kill, revive = fault.KillLane, fault.ReviveLane
	}
	faults := fault.Schedule{{Step: 0, Edge: int(path[sc.hop]), Kind: kill}}
	if sc.revive > 0 {
		faults = append(faults, fault.Event{Step: sc.revive, Edge: int(path[sc.hop]), Kind: revive})
	}
	return set, []int{0}, Config{VirtualChannels: 1, MaxSteps: 1 << 12, Faults: faults, Retry: sc.retry}
}

// TestFaultDeadlockHonesty exercises both halves of the deadlock
// contract under faults. A worm wedged behind a dead edge with no
// revival scheduled is a real deadlock and is flagged FaultDeadlocked;
// the identical configuration with a revival on the schedule must defer
// declaration, survive the outage, and deliver.
func TestFaultDeadlockHonesty(t *testing.T) {
	// (a) Injected worm, second edge dead forever: the retry policy does
	// not apply (the header has left the source), so the network freezes
	// and the freeze is the outage's doing.
	res := Run(faultScenario("dead-forever"))
	if !res.Deadlocked || !res.FaultDeadlocked {
		t.Fatalf("unrevived dead edge: Deadlocked=%v FaultDeadlocked=%v, want true/true (%+v)",
			res.Deadlocked, res.FaultDeadlocked, res)
	}
	if res.Delivered != 0 || res.Aborted != 0 {
		t.Fatalf("unrevived dead edge: Delivered=%d Aborted=%d, want 0/0", res.Delivered, res.Aborted)
	}

	// (b) Same outage with a revival at step 50: declaring deadlock any
	// time before it would be dishonest. The worm must park through the
	// outage, wake on revival, and deliver.
	res = Run(faultScenario("dead-then-revived"))
	if res.Deadlocked || res.Delivered != 1 {
		t.Fatalf("revived dead edge: Deadlocked=%v Delivered=%d, want false/1 (%+v)",
			res.Deadlocked, res.Delivered, res)
	}
	if res.PerMessage[0].DeliverTime <= 50 {
		t.Fatalf("delivered at %d, before the revival at 50", res.PerMessage[0].DeliverTime)
	}

	// (c) Lane-kill freeze: killing the only lane of an edge starves it
	// without marking it dead. A revival must still break the freeze
	// through the ordinary credit-release fold.
	res = Run(faultScenario("lane-kill-revived"))
	if res.Deadlocked || res.Delivered != 1 {
		t.Fatalf("revived lane kill: Deadlocked=%v Delivered=%d, want false/1 (%+v)",
			res.Deadlocked, res.Delivered, res)
	}
}

// TestFaultRetryAndAbort pins the never-injected retry path. A worm
// whose first edge is dead retries with capped exponential backoff; if
// the edge revives in time it delivers (with Retries recorded), and if
// the outage outlives MaxAttempts the worm is aborted — counted in
// Result.Aborted, stamped StatusAborted with a DropTime, and the run
// terminates cleanly rather than deadlocking.
func TestFaultRetryAndAbort(t *testing.T) {
	// Outage outlasting every retry: Backoff 4 doubling under cap 32 puts
	// the third re-attempt well before step 1000, so all attempts fail.
	res := Run(faultScenario("retry-abort"))
	if res.Aborted != 1 || res.Delivered != 0 {
		t.Fatalf("abort path: Aborted=%d Delivered=%d, want 1/0 (%+v)", res.Aborted, res.Delivered, res)
	}
	ms := res.PerMessage[0]
	if ms.Status != StatusAborted || ms.DropTime < 0 || ms.InjectTime != -1 {
		t.Fatalf("abort path stats: %+v", ms)
	}
	if ms.Retries != faultRetryDefaults.MaxAttempts {
		t.Fatalf("abort path: Retries=%d, want %d", ms.Retries, faultRetryDefaults.MaxAttempts)
	}
	if res.Deadlocked {
		t.Fatalf("abort path declared deadlock: %+v", res)
	}

	// Outage shorter than the backoff ladder: some retry lands after the
	// revival and the message delivers, Retries > 0.
	res = Run(faultScenario("retry-success"))
	if res.Delivered != 1 || res.Aborted != 0 {
		t.Fatalf("retry-success path: Delivered=%d Aborted=%d, want 1/0 (%+v)", res.Delivered, res.Aborted, res)
	}
	if res.PerMessage[0].Retries == 0 {
		t.Fatalf("retry-success path recorded no retries: %+v", res.PerMessage[0])
	}

	// Retry disabled: the same never-injected block parks instead, and
	// with a revival scheduled it delivers with zero retries.
	res = Run(faultScenario("no-retry-park"))
	if res.Delivered != 1 || res.PerMessage[0].Retries != 0 {
		t.Fatalf("no-retry path: %+v", res)
	}
}

// TestRestoreRejectsFaultScheduleMismatch: a snapshot taken under one
// fault schedule must refuse to restore under another (or none) — the
// schedule is part of the run's identity, like the topology and B.
func TestRestoreRejectsFaultScheduleMismatch(t *testing.T) {
	set := message.NewSet(topology.NewLinearArray(4))
	route := message.ShortestPathRouter(set.G)
	set.Add(0, 3, 4, route(0, 3))
	sched := fault.Schedule{
		{Step: 5, Edge: int(route(0, 3)[1]), Kind: fault.KillEdge},
		{Step: 30, Edge: int(route(0, 3)[1]), Kind: fault.ReviveEdge},
	}
	cfg := Config{VirtualChannels: 1, MaxSteps: 1 << 12, Faults: sched, Retry: faultRetryDefaults}
	blob := snapAt(t, set, []int{0}, cfg, 10)

	for name, mut := range map[string]func(*Config){
		"dropped schedule": func(c *Config) { c.Faults = nil },
		"edited schedule": func(c *Config) {
			c.Faults = fault.Schedule{{Step: 5, Edge: int(route(0, 3)[1]), Kind: fault.KillEdge}}
		},
		"edited retry": func(c *Config) { c.Retry.MaxAttempts = 99 },
	} {
		bad := cfg
		mut(&bad)
		if _, err := RestoreSim(set.G, bad, bytes.NewReader(blob)); err == nil {
			t.Errorf("%s: restore succeeded, want ErrSnapshotConfig", name)
		}
	}
	if _, err := RestoreSim(set.G, cfg, bytes.NewReader(blob)); err != nil {
		t.Fatalf("matching config failed to restore: %v", err)
	}
}

// snapAt runs the workload to the given step and returns the snapshot
// bytes.
func snapAt(t *testing.T, set *message.Set, releases []int, cfg Config, step int) []byte {
	t.Helper()
	si, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapInject(t, si, set, releases)
	if err := si.StepTo(step); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := si.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	return blob.Bytes()
}
