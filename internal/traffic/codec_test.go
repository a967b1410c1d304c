package traffic

// Pause/resume and checkpoint/restore differentials for the open-loop
// Runner: a run paused via Config.OnStep — or snapshotted there, killed,
// and restored into a fresh Runner — must produce a Result (and window
// series) byte-identical to the uninterrupted run.

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"wormhole/internal/snap/snaptest"
	"wormhole/internal/telemetry"
)

var errPause = errors.New("pause requested")

func runnerOracleCfg(proc Process, pat Pattern) Config {
	return Config{
		Net:             NewButterflyNet(8),
		VirtualChannels: 2,
		MessageLength:   4,
		Process:         proc,
		Pattern:         pat,
		Rate:            0.08,
		Warmup:          40,
		Measure:         160,
		Drain:           400,
		Window:          50,
		Seed:            17,
	}
}

// TestRunnerPauseResume pins the state-machine refactor: pausing via
// OnStep at an arbitrary step and Resuming must not perturb the run.
func TestRunnerPauseResume(t *testing.T) {
	for _, proc := range []Process{Bernoulli, Poisson, OnOff} {
		cfg := runnerOracleCfg(proc, Uniform)
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		pauses := 0
		cfg.OnStep = func(step int) error {
			if step%37 == 0 {
				pauses++
				return errPause
			}
			return nil
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		for errors.Is(err, errPause) {
			res, err = r.Resume()
		}
		if err != nil {
			t.Fatal(err)
		}
		if pauses == 0 {
			t.Fatalf("%s: run never paused; the resume path is untested", proc)
		}
		if !reflect.DeepEqual(want, res) {
			t.Fatalf("%s: paused run diverged\nwant: %+v\n got: %+v", proc, want, res)
		}
	}
}

// TestRunnerResumeWithoutRun pins the error contract.
func TestRunnerResumeWithoutRun(t *testing.T) {
	r, err := NewRunner(runnerOracleCfg(Bernoulli, Uniform))
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

// TestRunnerSnapshotRestore is the kill-and-restore differential: the
// run is snapshotted mid-flight from inside OnStep, the original Runner
// abandoned, and a RestoreRunner-built replacement finishes it. The
// final Result and the per-window series must match the uninterrupted
// oracle exactly — including a cross-mechanism case whose oracle runs
// on the naive-scan stepper (NaiveScan is a verified snapshot field, so
// the restore itself cannot switch steppers).
func TestRunnerSnapshotRestore(t *testing.T) {
	for _, tc := range []struct {
		name        string
		proc        Process
		pat         Pattern
		snapAt      int
		naiveOracle bool
		inputs      int // butterfly size; 0 keeps runnerOracleCfg's 8
	}{
		{"bernoulli-uniform", Bernoulli, Uniform, 31, false, 0},
		{"poisson-transpose", Poisson, Transpose, 97, false, 0},
		{"onoff-hotspot", OnOff, Hotspot, 53, false, 0},
		{"cross-stepper", Bernoulli, Uniform, 142, true, 0},
		{"drain-phase", Bernoulli, Uniform, 201, false, 0},
		// Wide and sparse: most endpoints are between arrivals at the cut,
		// so the resumed producer scans from the due times RestoreRunner restored.
		{"poisson-wide", Poisson, Uniform, 97, false, 512},
	} {
		cfg := runnerOracleCfg(tc.proc, tc.pat)
		if tc.inputs > 0 {
			cfg.Net = NewButterflyNet(tc.inputs)
		}
		oracleCfg := cfg
		oracleCfg.NaiveScan = tc.naiveOracle
		oracle, err := NewRunner(oracleCfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Run()
		if err != nil {
			t.Fatal(err)
		}
		wantWindows := append([]telemetry.WindowStats(nil), oracle.Windows()...)

		var blob bytes.Buffer
		cfg.OnStep = func(step int) error {
			if step >= tc.snapAt && blob.Len() == 0 {
				if err := oracle.Snapshot(&blob); err != nil {
					t.Fatal(err)
				}
				return errPause
			}
			return nil
		}
		victim, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle = victim // Snapshot target inside OnStep
		if _, err := victim.Run(); !errors.Is(err, errPause) {
			t.Fatalf("%s: run did not pause at step %d: %v", tc.name, tc.snapAt, err)
		}

		reCfg := cfg
		reCfg.OnStep = nil
		restored, err := RestoreRunner(reCfg, bytes.NewReader(blob.Bytes()))
		if err != nil {
			t.Fatalf("%s: restore: %v", tc.name, err)
		}
		got, err := restored.Resume()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: restored run diverged\nwant: %+v\n got: %+v", tc.name, want, got)
		}
		if !reflect.DeepEqual(wantWindows, restored.Windows()) {
			t.Fatalf("%s: restored window series diverged\nwant: %+v\n got: %+v", tc.name, wantWindows, restored.Windows())
		}
	}
}

// TestRestoreRunnerRejectsMismatch: every digest field mismatch must be
// reported as ErrRunnerSnapshot naming the field, and garbage must
// never restore.
func TestRestoreRunnerRejectsMismatch(t *testing.T) {
	cfg := runnerOracleCfg(OnOff, Hotspot)
	var blob bytes.Buffer
	cfg.OnStep = func(step int) error {
		if step == 25 {
			return errPause
		}
		return nil
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); !errors.Is(err, errPause) {
		t.Fatal(err)
	}
	if err := r.Snapshot(&blob); err != nil {
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
	base := runnerOracleCfg(OnOff, Hotspot)
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

// TestRunnerSnapshotCheckpointContinue pins the checkpoint-and-keep-
// going mode the daemon's periodic checkpointer uses: snapshotting
// WITHOUT pausing must not perturb the run (Snapshot only reads), and
// the LAST snapshot taken must still restore to the oracle result.
func TestRunnerSnapshotCheckpointContinue(t *testing.T) {
	cfg := runnerOracleCfg(Poisson, BitReverse)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var last bytes.Buffer
	var victim *Runner
	cfg.OnStep = func(step int) error {
		if step%60 == 0 {
			last.Reset()
			if err := victim.Snapshot(&last); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	}
	victim, err = NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := victim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("periodic snapshots perturbed the run\nwant: %+v\n got: %+v", want, got)
	}
	if last.Len() == 0 {
		t.Fatal("no checkpoint was taken")
	}

	reCfg := cfg
	reCfg.OnStep = nil
	restored, err := RestoreRunner(reCfg, bytes.NewReader(last.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("restored-from-checkpoint run diverged\nwant: %+v\n got: %+v", want, res)
	}
	if math.IsNaN(res.MeanLatency) {
		t.Fatal("NaN latency after restore")
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
		r := kneePaused(t, 0, at)
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
