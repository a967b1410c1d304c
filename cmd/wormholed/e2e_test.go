package main

// End-to-end daemon test against the real binaries: build wormholed and
// wormbench, start the daemon, submit a sweep and a T12-quick
// experiment, kill -9 the process mid-sweep, restart it over the same
// state directory, and require
//
//   - the resumed sweep's CSV to be byte-identical to direct in-process
//     runs of the same configuration, and
//   - the experiment job's CSV to be byte-identical to what
//     `wormbench -run T12 -quick -csv` prints.
//
// This is the acceptance test for the checkpoint/restore stack all the
// way through the process boundary: versioned binary snapshots on disk,
// state-directory recovery, and CLI/daemon rendering parity.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"wormhole/internal/traffic"
)

func buildBinary(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startDaemon launches the daemon binary and waits for its resolved
// address. The returned process is running; callers kill or signal it.
// extraArgs go last, so they can override the defaults (flag repetition
// keeps the final value).
func startDaemon(t *testing.T, bin, stateDir string, extraArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(stateDir, "addr")
	os.Remove(addrFile)
	args := []string{
		"-http", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-state", stateDir,
		"-workers", "1",
		"-checkpoint-interval", "500000",
	}
	args = append(args, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if blob, err := os.ReadFile(addrFile); err == nil && len(blob) > 0 {
			return cmd, "http://" + string(blob)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill() //nolint:errcheck
	t.Fatal("daemon never wrote its address file")
	return nil, ""
}

func TestDaemonE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds and drives real binaries")
	}
	tmp := t.TempDir()
	daemonBin := buildBinary(t, tmp, "wormhole/cmd/wormholed", "wormholed")
	benchBin := buildBinary(t, tmp, "wormhole/cmd/wormbench", "wormbench")
	stateDir := filepath.Join(tmp, "state")

	sweep := &SweepSpec{
		Topology: "butterfly",
		Size:     8,
		Config: traffic.Config{
			VirtualChannels: 2,
			MessageLength:   4,
			Process:         traffic.Bernoulli,
			Warmup:          100,
			Measure:         4_000_000, // seconds of wall clock: the kill window
			Drain:           1000,
			Window:          100_000,
			Seed:            17,
		},
		Rates: []float64{0.05},
	}

	cmd, base := startDaemon(t, daemonBin, stateDir)
	submit := func(spec JobSpec) string {
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d (%+v)", resp.StatusCode, st)
		}
		return st.ID
	}
	sweepID := submit(JobSpec{Type: "sweep", Sweep: sweep})
	expID := submit(JobSpec{Type: "experiment", Experiment: &ExperimentSpec{ID: "T12", Seed: 42, Quick: true}})

	// Wait for the sweep to be mid-run with at least one checkpoint on
	// disk, then kill -9: no graceful path, only the periodic snapshots
	// survive.
	snapPath := filepath.Join(stateDir, "jobs", sweepID, "point-000.snap")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck
			t.Fatal("sweep never checkpointed; cannot stage the kill")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck -- killed by design

	// Restart over the same state directory: both jobs must complete.
	cmd2, base2 := startDaemon(t, daemonBin, stateDir)
	defer func() {
		cmd2.Process.Kill() //nolint:errcheck
		cmd2.Wait()         //nolint:errcheck
	}()
	waitStateURL(t, base2, sweepID, stateDone)
	waitStateURL(t, base2, expID, stateDone)

	// Sweep CSV vs direct in-process runs of the same configuration.
	gotSweep := fetch(t, base2+"/api/v1/jobs/"+sweepID+"/result", http.StatusOK)
	if want := directRunCSV(t, sweep); want != string(gotSweep) {
		t.Errorf("killed-and-restored sweep diverged from direct runs\nwant:\n%s\ngot:\n%s", want, gotSweep)
	}

	// Experiment CSV vs the CLI, byte for byte.
	gotExp := fetch(t, base2+"/api/v1/jobs/"+expID+"/result", http.StatusOK)
	bench := exec.Command(benchBin, "-run", "T12", "-quick", "-csv")
	var benchOut bytes.Buffer
	bench.Stdout = &benchOut
	bench.Stderr = os.Stderr
	if err := bench.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(benchOut.Bytes(), gotExp) {
		t.Errorf("daemon experiment CSV diverged from wormbench\nwant:\n%s\ngot:\n%s", benchOut.Bytes(), gotExp)
	}

	// The CLI shares the daemon's size bound: an absurd -scale is one line
	// and exit 1, not a 180 GB allocation.
	huge := exec.Command(benchBin, "-run", "T15", "-scale", "1073741824")
	out, err := huge.CombinedOutput()
	if huge.ProcessState == nil || huge.ProcessState.ExitCode() != 1 || bytes.Count(out, []byte("\n")) != 1 {
		t.Errorf("wormbench -run T15 -scale 1073741824: %v, output:\n%s\nwant one line and exit 1", err, out)
	}

	// And the running daemon answers the same spec with a 400.
	resp, err := http.Post(base2+"/api/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"type":"experiment","experiment":{"id":"T15","scale":1073741824}}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized experiment scale: status %d, want 400", resp.StatusCode)
	}

	// The daemon stays healthy after all of it.
	fetch(t, base2+"/healthz", http.StatusOK)
}
