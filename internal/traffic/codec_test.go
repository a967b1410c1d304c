package traffic

// The Runner checkpoint codec's own contracts: its errors, its refusal
// of a mismatched Config or a cut stream, and its allocations. That a
// restored run finishes as the uninterrupted one did is checkRunner's.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"wormhole/internal/snap/snaptest"
	"wormhole/internal/vcsim"
)

// TestRunnerResumeWithoutRun pins the error contract.
func TestRunnerResumeWithoutRun(t *testing.T) {
	cfg := wireGoldenCfg() // less its faults and telemetry, under Bernoulli to uniform destinations
	cfg.Process, cfg.Pattern, cfg.Faults, cfg.Retry, cfg.Metrics = Bernoulli, Uniform, nil, vcsim.RetryPolicy{}, nil
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resume(); err == nil {
		t.Fatal("Resume with no run in progress succeeded")
	}
	var blob bytes.Buffer
	if err := r.Snapshot(&blob); err == nil {
		t.Fatal("Snapshot with no run in progress succeeded")
	}
}

// TestRestoreRunnerRejectsMismatch: every digest field mismatch must be
// reported as ErrRunnerSnapshot naming the field, and garbage must
// never restore.
func TestRestoreRunnerRejectsMismatch(t *testing.T) {
	base := wireGoldenCfg() // less its faults and telemetry
	base.Faults, base.Retry, base.Metrics = nil, vcsim.RetryPolicy{}, nil
	var blob bytes.Buffer
	if err := pausedAt(t, base, 25).Snapshot(&blob); err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*Config){
		"VirtualChannels": func(c *Config) { c.VirtualChannels = 3 },
		"MessageLength":   func(c *Config) { c.MessageLength = 5 },
		"Rate":            func(c *Config) { c.Rate = 0.05 },
		"Process":         func(c *Config) { c.Process = Poisson },
		"Pattern":         func(c *Config) { c.Pattern = Uniform },
		"Warmup":          func(c *Config) { c.Warmup = 41 },
		"Measure":         func(c *Config) { c.Measure = 161 },
		"Drain":           func(c *Config) { c.Drain = 401 },
		"Seed":            func(c *Config) { c.Seed = 18 },
		"Window":          func(c *Config) { c.Window = 25 },
		"OnMean":          func(c *Config) { c.OnMean = 9 },
	}
	for field, mutate := range mutations {
		bad := base
		mutate(&bad)
		_, err := RestoreRunner(bad, bytes.NewReader(blob.Bytes()))
		if !errors.Is(err, ErrRunnerSnapshot) {
			t.Errorf("%s mismatch: got %v, want ErrRunnerSnapshot", field, err)
		}
	}
	if _, err := RestoreRunner(base, bytes.NewReader([]byte("NOTARUNNERSNAP"))); !errors.Is(err, ErrRunnerSnapshot) {
		t.Errorf("garbage stream: got %v, want ErrRunnerSnapshot", err)
	}
	valid := blob.Bytes()
	for cut := 0; cut < len(valid) && cut < 4096; cut += 101 {
		if _, err := RestoreRunner(base, bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d restored successfully", cut)
		}
	}
	// The unmutated config restores.
	if _, err := RestoreRunner(base, bytes.NewReader(valid)); err != nil {
		t.Errorf("valid snapshot failed to restore: %v", err)
	}
}

// TestRestoreRunnerAtEveryRefillBoundary: a WRUNSNAP stream (faulted,
// telemetry attached, so every section is present) restores to the same
// Runner however its source delivers it (snaptest.Sources) — the seam
// between the runner's fields and the embedded WORMSNAP included —
// and a stream cut anywhere in the runner's own fields is
// ErrRunnerSnapshot.
func TestRestoreRunnerAtEveryRefillBoundary(t *testing.T) {
	want, err := Run(wireGoldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := pausedAt(t, wireGoldenCfg(), 60).Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	valid := blob.Bytes()
	simAt := bytes.Index(valid, []byte("WORMSNAP"))
	if simAt < 0 || len(valid) < 2*4096 {
		t.Fatalf("%d-byte stream, embedded simulator at %d: want one that spans reader buffers", len(valid), simAt)
	}
	for name, wrap := range snaptest.Sources {
		restored, err := RestoreRunner(wireGoldenCfg(), wrap(bytes.NewReader(valid)))
		if err != nil {
			t.Fatalf("%s reader: %v", name, err)
		}
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), valid) {
			t.Fatalf("%s reader: the restored Runner snapshots differently from the stream it was built from", name)
		}
		got, err := restored.Resume()
		if err != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("%s reader: continuation diverged (%v)\nwant %+v\n got %+v", name, err, want, got)
		}
	}
	// Every byte of the scalar fields at either end; a stride through the
	// sketch arrays between them, which are one bulk read each.
	for cut := 0; cut < simAt; cut++ {
		if cut >= 256 && cut < simAt-256 && cut%17 != 0 {
			continue
		}
		if _, err := RestoreRunner(wireGoldenCfg(), bytes.NewReader(valid[:cut])); !errors.Is(err, ErrRunnerSnapshot) {
			t.Fatalf("cut at %d of the runner's %d bytes: err = %v, want ErrRunnerSnapshot", cut, simAt, err)
		}
	}
}

// TestSnapshotAllocationsAreConstant: encoding allocates the two codec
// writers, their buffers and the two field lists — nothing per message,
// so a run eight times as long (eight times the worm records) allocates
// exactly as many objects per snapshot.
func TestSnapshotAllocationsAreConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the knee point for 4 k steps")
	}
	allocs := func(at int) (float64, int) {
		r := pausedAt(t, kneeBenchCfg(0), at)
		var buf bytes.Buffer
		if err := r.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(2, func() {
			buf.Reset()
			if err := r.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
		}), buf.Len()
	}
	short, shortBytes := allocs(512)
	long, longBytes := allocs(4096)
	if longBytes < 6*shortBytes {
		t.Fatalf("snapshots of %d and %d bytes: the long run is not long enough to tell", shortBytes, longBytes)
	}
	if short != long || long > 16 {
		t.Fatalf("%v allocations per snapshot at step 512 (%d bytes), %v at step 4096 (%d bytes); want equal and small",
			short, shortBytes, long, longBytes)
	}
}
