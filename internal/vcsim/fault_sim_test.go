package vcsim

// Fault-plane determinism suite. The fault schedule is first-class
// simulator state, so it is held to the same bar as every other feature:
// byte-identical across the naive scan and the wakeup engine;
// byte-identical across a snapshot/restore cut taken in the middle of
// an outage or of a retry backoff; and deadlock-honest —
// a freeze that a scheduled revival would break is never declared dead,
// while a freeze formed around dead resources is flagged as the
// outage's doing.

import (
	"bytes"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/message"
	"wormhole/internal/topology"
)

// faultRetryDefaults is the retry policy used across this suite: small
// base so retries resolve quickly, a handful of attempts so both the
// succeed-after-revival and the abort paths get exercised.
var faultRetryDefaults = RetryPolicy{MaxAttempts: 3, Backoff: 4, BackoffCap: 32}

// TestFaultMatchesNaiveRandomized is the broad differential: random
// workloads over all three fuzz topologies (butterfly, contended line,
// deadlock-prone ring) with generated outage schedules — whole-edge and
// lane kills, with revivals — under every arbitration policy and all
// three buffer architectures. Any divergence between the wakeup engine
// and the naive scan on aggregates, per-message stats (including
// Retries), Aborted, or FaultDeadlocked is an engine bug.
func TestFaultMatchesNaiveRandomized(t *testing.T) {
	archs := []struct {
		name  string
		depth int
		pool  bool
	}{
		{"rigid", 0, false},
		{"deep", 3, false},
		{"pool", 2, true},
	}
	for _, arch := range archs {
		arch := arch
		t.Run(arch.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				set, releases := fuzzWorkload(seed, uint8(seed), 10)
				for _, lanes := range []int{0, 1} {
					sched := fault.Generate(fault.GenConfig{
						Seed:       seed * 977,
						NumEdges:   set.G.NumEdges(),
						Horizon:    120,
						Rate:       0.4,
						MeanOutage: 30,
						Lanes:      lanes,
					})
					if len(sched) == 0 {
						continue
					}
					for _, pol := range []Policy{ArbByID, ArbAge, ArbRandom} {
						cfg := Config{
							VirtualChannels: 2,
							LaneDepth:       arch.depth,
							SharedPool:      arch.pool,
							Arbitration:     pol,
							Seed:            seed,
							MaxSteps:        1 << 14,
							CheckInvariants: true,
							Faults:          sched,
							Retry:           faultRetryDefaults,
						}
						label := arch.name + "/" + pol.String()
						runBoth(t, label, set, releases, cfg)
					}
				}
			}
		})
	}
}

// TestFaultDeadlockHonesty exercises both halves of the deadlock
// contract under faults. A worm wedged behind a dead edge with no
// revival scheduled is a real deadlock and is flagged FaultDeadlocked;
// the identical configuration with a revival on the schedule must defer
// declaration, survive the outage, and deliver.
func TestFaultDeadlockHonesty(t *testing.T) {
	g := topology.NewLinearArray(4)
	route := message.ShortestPathRouter(g)
	path := route(0, 3)
	if len(path) != 3 {
		t.Fatalf("expected a 3-edge path, got %d", len(path))
	}
	deadEdge := int(path[1])
	mk := func() (*message.Set, []int) {
		set := message.NewSet(g)
		set.Add(0, 3, 4, route(0, 3))
		return set, []int{0}
	}

	// (a) Injected worm, second edge dead forever: the retry policy does
	// not apply (the header has left the source), so the network freezes
	// and the freeze is the outage's doing.
	set, rel := mk()
	cfg := Config{
		VirtualChannels: 1,
		MaxSteps:        1 << 12,
		Faults:          fault.Schedule{{Step: 0, Edge: deadEdge, Kind: fault.KillEdge}},
		Retry:           faultRetryDefaults,
	}
	res := Run(set, rel, cfg)
	if !res.Deadlocked || !res.FaultDeadlocked {
		t.Fatalf("unrevived dead edge: Deadlocked=%v FaultDeadlocked=%v, want true/true (%+v)",
			res.Deadlocked, res.FaultDeadlocked, res)
	}
	if res.Delivered != 0 || res.Aborted != 0 {
		t.Fatalf("unrevived dead edge: Delivered=%d Aborted=%d, want 0/0", res.Delivered, res.Aborted)
	}
	runBoth(t, "dead-forever", set, rel, cfg)

	// (b) Same outage with a revival at step 50: declaring deadlock any
	// time before it would be dishonest. The worm must park through the
	// outage, wake on revival, and deliver.
	set, rel = mk()
	cfg.Faults = fault.Schedule{
		{Step: 0, Edge: deadEdge, Kind: fault.KillEdge},
		{Step: 50, Edge: deadEdge, Kind: fault.ReviveEdge},
	}
	res = Run(set, rel, cfg)
	if res.Deadlocked || res.Delivered != 1 {
		t.Fatalf("revived dead edge: Deadlocked=%v Delivered=%d, want false/1 (%+v)",
			res.Deadlocked, res.Delivered, res)
	}
	if res.PerMessage[0].DeliverTime <= 50 {
		t.Fatalf("delivered at %d, before the revival at 50", res.PerMessage[0].DeliverTime)
	}
	runBoth(t, "dead-then-revived", set, rel, cfg)

	// (c) Lane-kill freeze: killing the only lane of an edge starves it
	// without marking it dead. A revival must still break the freeze
	// through the ordinary credit-release fold.
	set, rel = mk()
	cfg.Faults = fault.Schedule{
		{Step: 0, Edge: deadEdge, Kind: fault.KillLane},
		{Step: 40, Edge: deadEdge, Kind: fault.ReviveLane},
	}
	res = Run(set, rel, cfg)
	if res.Deadlocked || res.Delivered != 1 {
		t.Fatalf("revived lane kill: Deadlocked=%v Delivered=%d, want false/1 (%+v)",
			res.Deadlocked, res.Delivered, res)
	}
	runBoth(t, "lane-kill-revived", set, rel, cfg)
}

// TestFaultRetryAndAbort pins the never-injected retry path. A worm
// whose first edge is dead retries with capped exponential backoff; if
// the edge revives in time it delivers (with Retries recorded), and if
// the outage outlives MaxAttempts the worm is aborted — counted in
// Result.Aborted, stamped StatusAborted with a DropTime, and the run
// terminates cleanly rather than deadlocking.
func TestFaultRetryAndAbort(t *testing.T) {
	g := topology.NewLinearArray(4)
	route := message.ShortestPathRouter(g)
	firstEdge := int(route(0, 3)[0])
	mk := func() (*message.Set, []int) {
		set := message.NewSet(g)
		set.Add(0, 3, 4, route(0, 3))
		return set, []int{0}
	}

	// Outage outlasting every retry: Backoff 4 doubling under cap 32 puts
	// the third re-attempt well before step 1000, so all attempts fail.
	set, rel := mk()
	cfg := Config{
		VirtualChannels: 1,
		MaxSteps:        1 << 12,
		Faults: fault.Schedule{
			{Step: 0, Edge: firstEdge, Kind: fault.KillEdge},
			{Step: 1000, Edge: firstEdge, Kind: fault.ReviveEdge},
		},
		Retry: faultRetryDefaults,
	}
	res := Run(set, rel, cfg)
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
	runBoth(t, "retry-abort", set, rel, cfg)

	// Outage shorter than the backoff ladder: some retry lands after the
	// revival and the message delivers, Retries > 0.
	set, rel = mk()
	cfg.Faults = fault.Schedule{
		{Step: 0, Edge: firstEdge, Kind: fault.KillEdge},
		{Step: 8, Edge: firstEdge, Kind: fault.ReviveEdge},
	}
	res = Run(set, rel, cfg)
	if res.Delivered != 1 || res.Aborted != 0 {
		t.Fatalf("retry-success path: Delivered=%d Aborted=%d, want 1/0 (%+v)", res.Delivered, res.Aborted, res)
	}
	if res.PerMessage[0].Retries == 0 {
		t.Fatalf("retry-success path recorded no retries: %+v", res.PerMessage[0])
	}
	runBoth(t, "retry-success", set, rel, cfg)

	// Retry disabled: the same never-injected block parks instead, and
	// with a revival scheduled it delivers with zero retries.
	set, rel = mk()
	cfg.Retry = RetryPolicy{}
	res = Run(set, rel, cfg)
	if res.Delivered != 1 || res.PerMessage[0].Retries != 0 {
		t.Fatalf("no-retry path: %+v", res)
	}
	runBoth(t, "no-retry-park", set, rel, cfg)
}

// TestFaultSnapshotMidOutage cuts snapshot/restore through the middle of
// live outages: for each kill event in a generated schedule, a cut one
// step after it (dead resources serialized dead) and one at the worst
// case — while a retried worm sits in backoff. Restoration must resume
// byte-identically through the rest of the outage and the revival.
func TestFaultSnapshotMidOutage(t *testing.T) {
	for _, arch := range []struct {
		name  string
		depth int
		pool  bool
	}{
		{"rigid", 0, false},
		{"deep", 2, true},
	} {
		set, releases := fuzzWorkload(11, 0, 10)
		sched := fault.Generate(fault.GenConfig{
			Seed:       1311,
			NumEdges:   set.G.NumEdges(),
			Horizon:    60,
			Rate:       0.5,
			MeanOutage: 30,
		})
		if len(sched) == 0 {
			t.Fatal("generated schedule is empty; pick a different seed")
		}
		cfg := Config{
			VirtualChannels: 2,
			LaneDepth:       arch.depth,
			SharedPool:      arch.pool,
			Arbitration:     ArbAge,
			Seed:            11,
			MaxSteps:        1 << 16,
			Faults:          sched,
			Retry:           faultRetryDefaults,
		}
		cuts := 0
		for _, ev := range sched {
			if ev.Kind == fault.KillEdge || ev.Kind == fault.KillLane {
				roundTrip(t, arch.name+"/mid-outage", set, releases, cfg, cfg, ev.Step+1)
				cuts++
				if cuts == 4 {
					break
				}
			}
		}
	}

	// Directed backoff cut: the only worm's first edge is dead from step
	// 0 to 40, so at step 12 it is mid-backoff with retries recorded and
	// nothing in flight — the snapshot must carry the retry counter and
	// the future release through the cut.
	g := topology.NewLinearArray(4)
	route := message.ShortestPathRouter(g)
	set := message.NewSet(g)
	set.Add(0, 3, 4, route(0, 3))
	cfg := Config{
		VirtualChannels: 1,
		MaxSteps:        1 << 12,
		Faults: fault.Schedule{
			{Step: 0, Edge: int(route(0, 3)[0]), Kind: fault.KillEdge},
			{Step: 40, Edge: int(route(0, 3)[0]), Kind: fault.ReviveEdge},
		},
		Retry: RetryPolicy{MaxAttempts: 8, Backoff: 4, BackoffCap: 16},
	}
	roundTrip(t, "mid-backoff", set, []int{0}, cfg, cfg, 12)
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
