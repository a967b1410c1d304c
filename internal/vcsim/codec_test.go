package vcsim

// Checkpoint/restore: a Sim snapshotted mid-run, restored into a fresh
// process-equivalent Sim, must continue the run byte-identically to the
// uninterrupted original — checkSim (fuzz_test.go) cuts both steppers on
// every row of TestSimEquivalences; the tests here pin injection after a
// restore, telemetry, the config verifier and the decode path, which must
// never panic on corrupt or truncated input.

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
)

// snapInject streams the whole workload into an incremental Sim.
func snapInject(t *testing.T, si *Sim, set *message.Set, releases []int) {
	t.Helper()
	for i := 0; i < set.Len(); i++ {
		if _, err := si.Inject(set.Get(message.ID(i)), releases[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// snapDrain steps until quiescent or the sim errors (horizon/deadlock —
// both are legitimate terminal states the snapshot must preserve).
func snapDrain(si *Sim) {
	for si.Active() > 0 {
		if err := si.Step(); err != nil {
			return
		}
	}
}

// TestSnapshotResumesInjection pins the post-restore injection path: a
// restored Sim accepts new messages and schedules them exactly like the
// uninterrupted original (the daemon resumes open-loop runs this way,
// injecting the remainder of the workload after the restart).
func TestSnapshotResumesInjection(t *testing.T) {
	set, releases := fuzzWorkload(11, 0, 16)
	cfg := Config{VirtualChannels: 2, Arbitration: ArbAge, Seed: 11, MaxSteps: 1 << 16, CheckInvariants: true}
	half := set.Len() / 2

	inject := func(si *Sim, from, to int, offset int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := si.Inject(set.Get(message.ID(i)), offset+releases[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	oracle, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, si := range []*Sim{oracle, victim} {
		inject(si, 0, half, 0)
		if err := si.StepTo(8); err != nil {
			t.Fatal(err)
		}
	}

	var blob bytes.Buffer
	if err := victim.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSim(set.G, cfg, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Second wave of injections lands on the oracle and the restoration.
	inject(oracle, half, set.Len(), 8)
	inject(restored, half, set.Len(), 8)
	snapDrain(oracle)
	snapDrain(restored)
	if want, got := oracle.Result(), restored.Result(); !reflect.DeepEqual(want, got) {
		t.Fatalf("post-restore injection diverged\noracle:   %+v\nrestored: %+v", want, got)
	}
}

// TestSnapshotCarriesMetrics verifies a restored run resumes its
// flight-recorder totals: the registry restored from a mid-run snapshot
// and driven to completion reports the same step count as the
// uninterrupted run, not a restart from zero.
func TestSnapshotCarriesMetrics(t *testing.T) {
	set, releases := fuzzWorkload(3, 0, 14)
	base := Config{VirtualChannels: 2, Arbitration: ArbAge, Seed: 3, MaxSteps: 1 << 16}

	full := telemetry.NewMetrics()
	cfg := base
	cfg.Metrics = full
	oracle, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapInject(t, oracle, set, releases)
	snapDrain(oracle)

	part := telemetry.NewMetrics()
	cfg = base
	cfg.Metrics = part
	victim, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapInject(t, victim, set, releases)
	if err := victim.StepTo(9); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := victim.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}

	resumed := telemetry.NewMetrics()
	cfg = base
	cfg.Metrics = resumed
	restored, err := RestoreSim(set.G, cfg, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snapDrain(restored)

	want, got := full.Snapshot(), resumed.Snapshot()
	for _, name := range []string{"steps", "injections", "deliveries", "flit_hops", "stall_events"} {
		if want.Counter(name) != got.Counter(name) {
			t.Errorf("counter %s: uninterrupted %d, resumed %d", name, want.Counter(name), got.Counter(name))
		}
	}
}

// TestFailedRestoreLeavesMetricsUntouched is the regression for a
// rejected checkpoint polluting the run that replaces it: a snapshot
// damaged after its metrics blob (here: the trailer cut short) must not
// write into the caller's registry, so the fresh NewSim the caller falls
// back to with the same Config reports its own step count, not its own
// plus the dead snapshot's.
func TestFailedRestoreLeavesMetricsUntouched(t *testing.T) {
	set, releases := fuzzWorkload(3, 0, 14)
	cfg := Config{VirtualChannels: 2, Arbitration: ArbAge, Seed: 3, MaxSteps: 1 << 16}
	steps := func(m *telemetry.Metrics) int64 {
		snap := m.Snapshot()
		return snap.Counter("steps")
	}
	run := func(cfg Config) int64 {
		si, err := NewSim(set.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snapInject(t, si, set, releases)
		snapDrain(si)
		return steps(cfg.Metrics)
	}
	cfg.Metrics = telemetry.NewMetrics()
	want := run(cfg)

	cfg.Metrics = telemetry.NewMetrics()
	victim, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapInject(t, victim, set, releases)
	if err := victim.StepTo(9); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := victim.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	torn := blob.Bytes()[:blob.Len()-3]

	cfg.Metrics = telemetry.NewMetrics()
	if _, err := RestoreSim(set.G, cfg, bytes.NewReader(torn)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("torn snapshot: got %v, want ErrSnapshotCorrupt", err)
	}
	if got := steps(cfg.Metrics); got != 0 {
		t.Errorf("rejected restore left steps = %d in the caller's registry", got)
	}
	if got := run(cfg); got != want {
		t.Errorf("fallback run after a rejected restore reports steps = %d, a clean run %d", got, want)
	}
}

// TestRestoreRejectsMismatchedConfig exercises the ErrSnapshotConfig
// contract on every verified field. It walks the Sim's own config field
// list, so a field added to the verifier without a mismatch case here
// fails the test.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	set, releases := fuzzWorkload(5, 0, 10)
	other := topology.NewButterfly(16).G // larger, so cfg.Faults stays in range on it
	faults := fault.Generate(fault.GenConfig{Seed: 5, NumEdges: set.G.NumEdges(), Horizon: 40, Rate: 0.3, MeanOutage: 10})
	cfg := Config{
		VirtualChannels: 2, LaneDepth: 2, Arbitration: ArbAge, Seed: 5, MaxSteps: 1 << 16,
		Faults: faults, Retry: RetryPolicy{MaxAttempts: 3, Backoff: 4, BackoffCap: 32},
	}
	si, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapInject(t, si, set, releases)
	if err := si.StepTo(5); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := si.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*Config){
		"VirtualChannels":     func(c *Config) { c.VirtualChannels = 3 },
		"LaneDepth":           func(c *Config) { c.LaneDepth = 3 },
		"SharedPool":          func(c *Config) { c.SharedPool = true },
		"RestrictedBandwidth": func(c *Config) { c.RestrictedBandwidth = true },
		"DropOnDelay":         func(c *Config) { c.DropOnDelay = true },
		"NaiveScan":           func(c *Config) { c.NaiveScan = true },
		"Arbitration":         func(c *Config) { c.Arbitration = ArbRandom },
		"Seed":                func(c *Config) { c.Seed = 99 },
		"MaxSteps":            func(c *Config) { c.MaxSteps = 123 },
		"Retry.MaxAttempts":   func(c *Config) { c.Retry.MaxAttempts = 4 },
		"Retry.Backoff":       func(c *Config) { c.Retry.Backoff = 5 },
		"Retry.BackoffCap":    func(c *Config) { c.Retry.BackoffCap = 33 },
		"Faults":              func(c *Config) { c.Faults = faults[:len(faults)-1] },
	}
	fields := []string{"Faults"} // verified after the fixed-width list
	for _, f := range si.configFields() {
		if f.adopt == nil {
			fields = append(fields, f.name)
		}
	}
	for _, field := range fields {
		bad, g := cfg, set.G
		switch mutate := mutations[field]; {
		case field == "network edges":
			g = other
		case mutate == nil:
			t.Errorf("verified field %q has no mismatch case", field)
			continue
		default:
			mutate(&bad)
		}
		if _, err := RestoreSim(g, bad, bytes.NewReader(blob.Bytes())); !errors.Is(err, ErrSnapshotConfig) {
			t.Errorf("%s mismatch: got %v, want ErrSnapshotConfig", field, err)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("%s mismatch error does not name the field: %v", field, err)
		}
	}
	if len(fields) != len(mutations)+1 {
		t.Errorf("%d mismatch cases for %d verified fields", len(mutations)+1, len(fields))
	}

	// The mechanism-only field restores freely.
	free := cfg
	free.CheckInvariants = true
	if _, err := RestoreSim(set.G, free, bytes.NewReader(blob.Bytes())); err != nil {
		t.Errorf("CheckInvariants should be unverified: %v", err)
	}
}

// TestRestoreIgnoresReservedSlot pins the format-compatibility shim: the
// 8 bytes ahead of the metrics flag are reserved (an older build kept a
// stepper-mechanism tally there), so a snapshot carrying any value in
// them restores and finishes exactly like one carrying zero.
func TestRestoreIgnoresReservedSlot(t *testing.T) {
	set, releases := fuzzWorkload(13, 0, 12)
	cfg := Config{VirtualChannels: 2, Arbitration: ArbAge, Seed: 13, MaxSteps: 1 << 16}
	si, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapInject(t, si, set, releases)
	if err := si.StepTo(6); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := si.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), blob.Bytes()...)
	// Metrics-free tail: reserved i64, metrics flag (1 byte), trailer u64.
	slot := old[len(old)-17 : len(old)-9]
	if !bytes.Equal(slot, make([]byte, 8)) {
		t.Fatalf("reserved slot written as % x, want zeros", slot)
	}
	copy(slot, []byte{0x39, 0x30, 0, 0, 0, 0, 0, 0})
	restored, err := RestoreSim(set.G, cfg, bytes.NewReader(old))
	if err != nil {
		t.Fatalf("snapshot with a non-zero reserved slot rejected: %v", err)
	}
	snapDrain(si)
	snapDrain(restored)
	if want, got := si.Result(), restored.Result(); !reflect.DeepEqual(want, got) {
		t.Fatalf("restored run diverged\noriginal: %+v\nrestored: %+v", want, got)
	}
}

// streakSlot is the offset of the park-streak slot in si's snapshots.
func streakSlot(si *Sim) int {
	off := len(snapMagic) + 4
	for _, f := range si.configFields() {
		if f.name == "park streak" {
			return off
		}
		off += f.width
	}
	panic("no park streak slot in the config section")
}

// TestRestoreAdoptsParkStreak pins the park-streak slot, which RestoreSim
// adopts instead of verifying: a snapshot cut with parked worms at streak 1
// restores at streak 1 and finishes exactly like the uninterrupted run, and
// a slot of 0 — a streak no Sim runs at — is corrupt.
func TestRestoreAdoptsParkStreak(t *testing.T) {
	set, releases := fuzzWorkload(13, 0, 24)
	cfg := Config{VirtualChannels: 1, Arbitration: ArbAge, Seed: 13, MaxSteps: 1 << 16}
	si, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	si.parkStreak = 1
	snapInject(t, si, set, releases)
	if err := si.StepTo(10); err != nil {
		t.Fatal(err)
	}
	if si.parked == 0 {
		t.Fatal("no worm parked at the cut; the streak is not under test")
	}
	var blob bytes.Buffer
	if err := si.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSim(set.G, cfg, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.parkStreak != 1 {
		t.Fatalf("restored at park streak %d, want the snapshot's 1", restored.parkStreak)
	}
	snapDrain(si)
	snapDrain(restored)
	if want, got := si.Result(), restored.Result(); !reflect.DeepEqual(want, got) {
		t.Fatalf("restored run diverged\noriginal: %+v\nrestored: %+v", want, got)
	}

	zero := append([]byte(nil), blob.Bytes()...)
	off := streakSlot(si)
	copy(zero[off:off+4], make([]byte, 4))
	if _, err := RestoreSim(set.G, cfg, bytes.NewReader(zero)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("park streak 0: got %v, want ErrSnapshotCorrupt", err)
	}
}

// TestRestoreNeverPanicsOnCorruptInput sweeps truncations and byte
// corruptions of a valid snapshot through RestoreSim: every one must
// come back as a typed error, never a panic or an OOM-sized allocation.
func TestRestoreNeverPanicsOnCorruptInput(t *testing.T) {
	set, releases := fuzzWorkload(9, 2, 12)
	cfg := Config{VirtualChannels: 2, Arbitration: ArbAge, Seed: 9, MaxSteps: 1 << 16}
	si, err := NewSim(set.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapInject(t, si, set, releases)
	if err := si.StepTo(7); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := si.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	valid := blob.Bytes()

	if _, err := RestoreSim(set.G, cfg, bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid snapshot failed to restore: %v", err)
	}
	if _, err := RestoreSim(set.G, cfg, strings.NewReader("NOTASNAP....")); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("bad magic: got %v, want ErrSnapshotFormat", err)
	}
	vbad := append([]byte(nil), valid...)
	vbad[8] = 99 // version field
	if _, err := RestoreSim(set.G, cfg, bytes.NewReader(vbad)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("bad version: got %v, want ErrSnapshotFormat", err)
	}

	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := RestoreSim(set.G, cfg, bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d restored successfully", cut, len(valid))
		}
	}
	r := rng.New(0xBAD)
	for trial := 0; trial < 400; trial++ {
		mut := append([]byte(nil), valid...)
		pos := len(snapMagic) + 4 + r.Intn(len(mut)-len(snapMagic)-4)
		mut[pos] ^= byte(1 + r.Intn(255))
		si2, err := RestoreSim(set.G, cfg, bytes.NewReader(mut))
		if err == nil {
			// A flipped bit in a non-validated field (a counter, a
			// timestamp) can still decode; it must at least not wedge
			// the stepper.
			snapDrain(si2)
		}
	}
}
