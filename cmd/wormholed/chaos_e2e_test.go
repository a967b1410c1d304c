package main

// Chaos end-to-end: the acceptance test for "never crashes, never
// serves corrupt results". A daemon started with -chaos (so its own
// checkpoint writes are being failed, torn, flipped, and dropped) runs
// a faulted sweep, is SIGKILLed at a randomized point after its first
// checkpoint lands, and the checkpoint on disk is then corrupted by the
// harness — one subtest truncates it, one flips a bit. The restarted
// daemon must detect the corruption (CRC frame), fall back to a fresh
// run, and serve a CSV byte-identical to a direct in-process run of the
// same spec. All daemon traffic goes through internal/wormclient, whose
// retry-on-refused discipline is what lets the harness talk across the
// restart.
//
// CI sets WORMHOLED_STATE_ROOT to a workspace path so a failing run
// leaves its state directory behind for artifact upload; without it the
// state lives under t.TempDir and vanishes with the test.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wormhole/internal/traffic"
	"wormhole/internal/wormclient"
)

func chaosSweepSpec(t *testing.T) *SweepSpec {
	return &SweepSpec{
		Topology: "butterfly",
		Size:     8,
		Config: traffic.Config{
			VirtualChannels: 2,
			MessageLength:   4,
			Process:         traffic.Bernoulli,
			Warmup:          100,
			Measure:         3_000_000, // long enough to checkpoint and die mid-run
			Drain:           1000,
			Seed:            23,
			Faults:          mustFaults(t, "lane:1@500-2500 edge:6@1000-4000"),
		},
		Rates:            []float64{0.05},
		RetryMaxAttempts: 4,
		RetryBackoff:     8,
		RetryBackoffCap:  128,
	}
}

func chaosClient(base string) *wormclient.Client {
	return wormclient.New(base,
		wormclient.WithRetry(8, 50*time.Millisecond, time.Second),
		wormclient.WithJitterSeed(1))
}

func waitDoneClient(t *testing.T, c *wormclient.Client, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for {
		var st JobStatus
		if err := c.GetJSON(ctx, "/api/v1/jobs/"+id, &st); err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		switch st.State {
		case stateDone:
			return
		case stateFailed, stateCanceled:
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("job %s never completed", id)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestDaemonChaosE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds and drives real binaries")
	}
	tmp := t.TempDir()
	bin := buildBinary(t, tmp, "wormhole/cmd/wormholed", "wormholed")
	spec := chaosSweepSpec(t)
	want := directRunCSV(t, spec)
	rnd := rand.New(rand.NewSource(time.Now().UnixNano()))
	stateRoot := os.Getenv("WORMHOLED_STATE_ROOT")
	if stateRoot == "" {
		stateRoot = tmp
	}

	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/3] }},
		{"bitflip", func(b []byte) []byte {
			mut := append([]byte(nil), b...)
			mut[len(mut)/2] ^= 0x10
			return mut
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stateDir := filepath.Join(stateRoot, "state-"+tc.name)
			t.Logf("state dir: %s", stateDir)

			// Phase 1: a chaotic daemon — its own checkpoint writes are
			// already being injured — takes the job.
			cmd, base := startDaemon(t, bin, stateDir,
				"-checkpoint-interval", "200000", "-chaos", "7")
			cli := chaosClient(base)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var st JobStatus
			if err := cli.PostJSON(ctx, "/api/v1/jobs", JobSpec{Type: "sweep", Sweep: spec}, &st); err != nil {
				t.Fatalf("submit: %v", err)
			}

			// Wait for a checkpoint to land (chaos drops some attempts;
			// one gets through), then SIGKILL at a randomized offset.
			snapPath := filepath.Join(stateDir, "jobs", st.ID, "point-000.snap")
			deadline := time.Now().Add(60 * time.Second)
			for {
				if fi, err := os.Stat(snapPath); err == nil && fi.Size() > 0 {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill() //nolint:errcheck
					t.Fatal("no checkpoint ever landed; cannot stage the kill")
				}
				time.Sleep(20 * time.Millisecond)
			}
			time.Sleep(time.Duration(rnd.Intn(150)) * time.Millisecond)
			if cmd.ProcessState != nil {
				t.Fatal("daemon exited on its own before the kill")
			}
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			cmd.Wait() //nolint:errcheck -- killed by design

			// Phase 2: the harness corrupts whatever checkpoint survived.
			raw, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snapPath, tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			// Phase 3: a clean daemon restarts over the poisoned state
			// dir. It must reject the checkpoint, rerun from scratch, and
			// serve the oracle's bytes.
			cmd2, base2 := startDaemon(t, bin, stateDir)
			defer func() {
				cmd2.Process.Kill() //nolint:errcheck
				cmd2.Wait()         //nolint:errcheck
			}()
			cli2 := chaosClient(base2)
			waitDoneClient(t, cli2, st.ID)
			got, err := cli2.Get(context.Background(), "/api/v1/jobs/"+st.ID+"/result")
			if err != nil {
				t.Fatal(err)
			}
			if want != string(got) {
				t.Errorf("recovery after %s checkpoint diverged from clean run\nwant:\n%s\ngot:\n%s", tc.name, want, got)
			}
			var health map[string]any
			if err := cli2.GetJSON(context.Background(), "/healthz", &health); err != nil {
				t.Fatalf("healthz after recovery: %v", err)
			}
			// And the job says so itself: the rejection is on its record.
			var final JobStatus
			if err := cli2.GetJSON(context.Background(), "/api/v1/jobs/"+st.ID, &final); err != nil {
				t.Fatal(err)
			}
			if ck := final.Checkpoints; ck == nil || ck.RestoreRejected < 1 || ck.LastRestoreError == "" {
				t.Errorf("job recovered over a %s checkpoint reports %+v; want restore_rejected >= 1 with a reason", tc.name, ck)
			}

			// The harness corruption (or chaos's own) must have been seen
			// and discarded, not resumed: a resumed corrupt run would have
			// produced divergent bytes above, and the checkpoint file is
			// gone once its point completes.
			if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
				t.Errorf("completed point left its checkpoint behind: %v", err)
			}
			if !t.Failed() {
				os.RemoveAll(stateDir)
			}
		})
	}
}
