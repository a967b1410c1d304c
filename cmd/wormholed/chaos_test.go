package main

// In-process tests for the robustness surface this package grew with
// the fault plane: the checkpoint integrity frame, the deterministic
// chaos injector, the -max-queued admission cap, the request body cap,
// and faulted sweep jobs rendering identically to direct runs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wormhole/internal/snap"
)

// TestCheckpointFrame: what checkpointRunner seals, runPoint opens, and
// the two corruptions the chaos plane writes — a torn write, a flipped
// byte — come back as errCorruptCheckpoint. (The exhaustive every-offset
// check lives with the frame, in internal/snap.)
func TestCheckpointFrame(t *testing.T) {
	payload := []byte("WRUNSNAP-stand-in payload bytes, long enough to cut at many points")
	var frame snap.Frame
	frame.Write(payload) //nolint:errcheck
	sealed := frame.Seal()

	got, err := snap.Open(sealed, errCorruptCheckpoint)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip: %v (%q)", err, got)
	}
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)/2] ^= 0x20
	for name, raw := range map[string][]byte{
		"torn":    sealed[:len(sealed)/2],
		"flipped": flipped,
		"garbage": []byte("not a checkpoint at all"),
	} {
		if _, err := snap.Open(raw, errCorruptCheckpoint); !errors.Is(err, errCorruptCheckpoint) {
			t.Errorf("%s checkpoint: err = %v, want errCorruptCheckpoint", name, err)
		}
	}
}

// TestChaosInjectorDeterministic: same seed, same write sequence, same
// injected faults — the chaos plane is replayable like everything else.
func TestChaosInjectorDeterministic(t *testing.T) {
	blob := bytes.Repeat([]byte{0xAB}, 400)
	trace := func(seed uint64) []string {
		inj := newChaosInjector(seed)
		var out []string
		for i := 0; i < 64; i++ {
			mangled, err := inj.mangleWrite("x", blob)
			switch {
			case err != nil:
				out = append(out, "enospc")
			case mangled == nil:
				out = append(out, "drop")
			case bytes.Equal(mangled, blob):
				out = append(out, "clean")
			default:
				out = append(out, fmt.Sprintf("mangle-%d-%x", len(mangled), mangled[:min(4, len(mangled))]))
			}
		}
		return out
	}
	a, b := trace(7), trace(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: %s vs %s", i, a[i], b[i])
		}
	}
	// The injector actually injects: a long trace is not all clean.
	all := strings.Join(a, ",")
	for _, kind := range []string{"enospc", "drop", "clean", "mangle"} {
		if !strings.Contains(all, kind) {
			t.Errorf("64 draws never produced %q: %s", kind, all)
		}
	}
}

// TestAdmissionCap: submissions over -max-queued get 429 with
// Retry-After, and nothing is persisted for the rejected job.
func TestAdmissionCap(t *testing.T) {
	dir := t.TempDir()
	m, err := newManager(dir, 1, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	srv := newTestHTTP(t, m)

	long := testSweepSpec()
	long.Rates = []float64{0.05}
	long.Measure = 200_000_000 // occupies the lone worker until cancel

	submit := func() *http.Response {
		return postJSON(t, srv+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: long})
	}
	first := decodeStatus(t, submit())           // picked up by the worker
	waitStateURL(t, srv, first.ID, stateRunning) // queue is empty again
	second := decodeStatus(t, submit())          // sits in the queue

	resp := submit()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
	if body["error"] != "overloaded" {
		t.Fatalf("error kind %q, want overloaded", body["error"])
	}

	// Unblock the pool so Shutdown doesn't wait on a 200M-step run.
	m.Cancel(first.ID)
	m.Cancel(second.ID)
}

// TestJobBodyCap: a submission over maxJobBody is a 413, not an
// unbounded read.
func TestJobBodyCap(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	srv := newTestHTTP(t, m)

	// Syntactically valid JSON, so the decoder keeps reading until the
	// byte cap trips rather than bailing on the first token.
	huge := append([]byte(`{"type":"`), bytes.Repeat([]byte("x"), maxJobBody+1024)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := http.Post(srv+"/api/v1/jobs", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d, want 413", resp.StatusCode)
	}
}

// TestFaultedSweepMatchesDirectRun: a sweep job with a fault schedule
// and retry policy renders byte-identically to direct traffic.Run calls
// with the same config — the service layer adds nothing and loses
// nothing around the fault plane.
func TestFaultedSweepMatchesDirectRun(t *testing.T) {
	m, err := newManager(t.TempDir(), 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	srv := newTestHTTP(t, m)

	spec := testSweepSpec()
	spec.Faults = mustFaults(t, "lane:0@10-60 edge:3@20-80 lane:5@40-90")
	spec.RetryMaxAttempts = 3
	spec.RetryBackoff = 8
	spec.RetryBackoffCap = 64

	st := decodeStatus(t, postJSON(t, srv+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: spec}))
	done := waitStateURL(t, srv, st.ID, stateDone)
	got := fetch(t, srv+"/api/v1/jobs/"+st.ID+"/result", http.StatusOK)

	if done.Checkpoints != nil {
		t.Fatalf("a job that never checkpointed reports checkpoints %+v; want the object absent", done.Checkpoints)
	}

	if want := directRunCSV(t, spec); string(got) != want {
		t.Fatalf("faulted sweep CSV diverged from direct runs\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestBadFaultGrammarRejected: an unparseable schedule is a 400 at
// submission, not a worker-side failure.
func TestBadFaultGrammarRejected(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	srv := newTestHTTP(t, m)

	body := `{"type":"sweep","sweep":{"topology":"butterfly","size":8,"virtual_channels":2,
		"message_length":4,"rates":[0.02],"measure":160,"faults":"lane3@nonsense"}}`
	resp, err := http.Post(srv+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fault grammar = %d, want 400", resp.StatusCode)
	}
}

// TestChaoticManagerStillCompletes: with the injector mangling every
// checkpoint write, jobs still finish and still render byte-identically
// to direct runs — chaos can cost checkpoints, never correctness.
func TestChaoticManagerStillCompletes(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, 50, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	srv := newTestHTTP(t, m)

	spec := testSweepSpec()
	st := decodeStatus(t, postJSON(t, srv+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: spec}))
	done := waitStateURL(t, srv, st.ID, stateDone)
	got := fetch(t, srv+"/api/v1/jobs/"+st.ID+"/result", http.StatusOK)

	// The injected ENOSPCs are on the job's record, not only in stderr.
	if ck := done.Checkpoints; ck == nil || ck.Failed == 0 || ck.Written == 0 || !strings.Contains(ck.LastError, errDiskFull.Error()) {
		t.Fatalf("chaotic job reports checkpoints %+v; want failures counted and the last error kept", ck)
	}

	if want := directRunCSV(t, spec); string(got) != want {
		t.Fatalf("chaotic sweep CSV diverged from direct runs\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestRejectedRestoreIsOnTheRecord: a checkpoint the integrity frame
// refuses costs the point its resume, not its correctness — and the job's
// status, not only stderr, says a restore was rejected and why.
func TestRejectedRestoreIsOnTheRecord(t *testing.T) {
	spec := testSweepSpec()
	spec.Measure, spec.Drain = 2000, 800 // long enough to catch mid-run

	dir := t.TempDir()
	m1, err := newManager(dir, 1, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := newTestHTTP(t, m1)
	st := decodeStatus(t, postJSON(t, srv1+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: spec}))
	waitStateURL(t, srv1, st.ID, stateRunning)
	m1.Shutdown() // takes the final checkpoint of whichever point was live

	snaps, err := filepath.Glob(filepath.Join(dir, "jobs", st.ID, "point-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("shutdown left checkpoints %v (%v), want exactly one", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := newManager(dir, 1, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown()
	srv2 := newTestHTTP(t, m2)
	done := waitStateURL(t, srv2, st.ID, stateDone)
	ck := done.Checkpoints
	if ck == nil || ck.RestoreRejected < 1 || ck.Restored != 0 ||
		!strings.Contains(ck.LastRestoreError, errCorruptCheckpoint.Error()) || !strings.Contains(ck.LastRestoreError, "checksum mismatch") {
		t.Fatalf("job resumed over a flipped checkpoint reports %+v; want the rejection counted with the frame's reason", ck)
	}
	if got, want := fetch(t, srv2+"/api/v1/jobs/"+st.ID+"/result", http.StatusOK), directRunCSV(t, spec); string(got) != want {
		t.Fatalf("sweep re-run after a rejected restore diverged from direct runs\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// newTestHTTP serves m for tests that build their own manager.
func newTestHTTP(t *testing.T, m *manager) string {
	t.Helper()
	srv := httptest.NewServer(newAPI(m))
	t.Cleanup(srv.Close)
	return srv.URL
}
