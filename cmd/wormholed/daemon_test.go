package main

// In-process daemon tests: the API contract (including the typed 400s
// for engine-rejected workloads, the admission and body caps), the
// sweep/experiment job lifecycle, faulted sweeps, the checkpoint frame,
// and graceful-shutdown resume — all against real managers over real
// state directories, with the HTTP layer exercised through httptest.
// Crash consistency has its own enumeration, in crash_test.go.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wormhole/internal/core"
	"wormhole/internal/fault"
	"wormhole/internal/snap"
	"wormhole/internal/stats"
	"wormhole/internal/traffic"
)

// raceDetector is set by race_test.go when the race detector is on.
var raceDetector bool

func testSweepSpec() *SweepSpec {
	return &SweepSpec{
		Topology: "butterfly",
		Size:     8,
		Config: traffic.Config{
			VirtualChannels: 2,
			MessageLength:   4,
			Process:         traffic.Bernoulli,
			Warmup:          40,
			Measure:         160,
			Drain:           400,
			Window:          50,
			Seed:            17,
		},
		Rates: []float64{0.02, 0.05},
	}
}

// directRunCSV renders the spec's expected CSV from direct in-process
// traffic.Run calls: the oracle every daemon-served sweep is diffed
// against.
func directRunCSV(t *testing.T, spec *SweepSpec) string {
	t.Helper()
	net, err := spec.network()
	if err != nil {
		t.Fatal(err)
	}
	var points []pointResult
	for _, rate := range spec.Rates {
		res, err := traffic.Run(spec.config(net, rate))
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pointResult{Rate: rate, Result: res})
	}
	return renderSweepCSV(points)
}

// mustFaults parses a fault schedule for a spec literal.
func mustFaults(t *testing.T, text string) fault.Schedule {
	t.Helper()
	s, err := fault.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func startTestServer(t *testing.T, stateDir string, ckptEvery int) (*httptest.Server, *manager) {
	t.Helper()
	m, err := newManager(stateDir, 2, ckptEvery, 0, snap.OS)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newAPI(m))
	t.Cleanup(srv.Close)
	return srv, m
}

// holdFS is an FS whose first point-*.snap write waits until release
// closes. A job that reaches its first checkpoint stays running until
// then, however fast its sweep.
type holdFS struct {
	snap.FS
	release <-chan struct{}
	once    sync.Once
}

func (h *holdFS) CreateTemp(dir, pattern string) (snap.File, error) {
	if ok, _ := filepath.Match("point-*.snap*", pattern); ok {
		h.once.Do(func() { <-h.release })
	}
	return h.FS.CreateTemp(dir, pattern)
}

// startHeldServer is startTestServer over snap.OS with the first
// checkpoint held until the manager shuts down: a test that sees its job
// running and then calls Shutdown catches it mid-run, with a checkpoint
// on disk.
func startHeldServer(t *testing.T, stateDir string, workers, ckptEvery int) (string, *manager) {
	t.Helper()
	h := &holdFS{FS: snap.OS}
	m, err := newManager(stateDir, workers, ckptEvery, 0, h)
	if err != nil {
		t.Fatal(err)
	}
	h.release = m.ctx.Done() // before the server: no job has started
	return newTestHTTP(t, m), m
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, srv *httptest.Server, id string, want jobState) JobStatus {
	t.Helper()
	return waitStateURL(t, srv.URL, id, want)
}

func waitStateURL(t *testing.T, base, id string, want jobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if err := json.Unmarshal(fetch(t, base+"/api/v1/jobs/"+id, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case want:
			return st
		case stateFailed:
			t.Fatalf("job %s failed: %s", id, st.Error)
		case stateDone, stateCanceled:
			t.Fatalf("job %s is already %s; it will never be %s", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

func fetch(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantCode, buf.String())
	}
	return buf.Bytes()
}

// TestSubmitValidation pins the 400 contract, including the typed
// engine errors surfaced at submission time.
func TestSubmitValidation(t *testing.T) {
	srv, m := startTestServer(t, t.TempDir(), 0)
	defer m.Shutdown()

	for name, tc := range map[string]struct {
		spec     JobSpec
		wantKind string // engine_error field, "" = don't check
	}{
		"unknown type":       {JobSpec{Type: "nonsense"}, ""},
		"sweep without spec": {JobSpec{Type: "sweep"}, ""},
		"no rates": {JobSpec{Type: "sweep", Sweep: func() *SweepSpec {
			s := testSweepSpec()
			s.Rates = nil
			return s
		}()}, ""},
		"bad topology": {JobSpec{Type: "sweep", Sweep: func() *SweepSpec {
			s := testSweepSpec()
			s.Topology = "hypercube"
			return s
		}()}, ""},
		"zero virtual channels": {JobSpec{Type: "sweep", Sweep: func() *SweepSpec {
			s := testSweepSpec()
			s.VirtualChannels = 0
			return s
		}()}, ""},
		"lanes past the engine layout": {JobSpec{Type: "sweep", Sweep: func() *SweepSpec {
			s := testSweepSpec()
			s.VirtualChannels, s.LaneDepth = 1<<30, 4 // panicked in NewSim; the handler died mid-request
			return s
		}()}, "bad_config"},
		"over horizon": {JobSpec{Type: "sweep", Sweep: func() *SweepSpec {
			s := testSweepSpec()
			s.Warmup = 1 << 30
			s.Measure = 1 << 30
			s.Drain = 1 << 30
			return s
		}()}, "over_horizon"},
		"a later rate past the process maximum": {JobSpec{Type: "sweep", Sweep: func() *SweepSpec {
			s := testSweepSpec()
			s.Rates = []float64{0.02, 2.0}
			return s
		}()}, ""},
		"fault on an edge the network lacks": {JobSpec{Type: "sweep", Sweep: func() *SweepSpec {
			s := testSweepSpec()
			s.Faults = mustFaults(t, "edge:48@10-20") // an 8-input butterfly has edges 0..47
			return s
		}()}, "bad_config"},
		"unknown experiment":   {JobSpec{Type: "experiment", Experiment: &ExperimentSpec{ID: "T99"}}, ""},
		"bad experiment scale": {JobSpec{Type: "experiment", Experiment: &ExperimentSpec{ID: "T15", Scale: 100}}, ""},
	} {
		resp := postJSON(t, srv.URL+"/api/v1/jobs", tc.spec)
		body := map[string]string{}
		json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", name, resp.StatusCode, body)
		}
		if tc.wantKind != "" && body["engine_error"] != tc.wantKind {
			t.Errorf("%s: engine_error %q, want %q", name, body["engine_error"], tc.wantKind)
		}
	}
	// Every rejection left the daemon serving.
	fetch(t, srv.URL+"/api/v1/jobs", http.StatusOK)
}

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMaxSizeSubmissionBuildsNothing: the POST handler judges a sweep
// with the engine's validators, not by building the job. At the size
// bound a network and a Runner's simulator over it hold ≈ 72 MB
// (vcsim's TestRetainedBytesPerEdge); the handler used to build both —
// per request, before answering even a plain bad rate with its 400, and
// again for a valid spec that a worker would then build a second time.
func TestMaxSizeSubmissionBuildsNothing(t *testing.T) {
	srv, m := startTestServer(t, t.TempDir(), 0)
	defer m.Shutdown()
	spec := JobSpec{Type: "sweep", Sweep: testSweepSpec()}
	spec.Sweep.Size = traffic.MaxEndpoints

	spec.Sweep.Rates = []float64{2.0}
	if n := allocated(func() {
		resp := postJSON(t, srv.URL+"/api/v1/jobs", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad rate at the size bound: status %d, want 400", resp.StatusCode)
		}
	}); n > 1<<20 {
		t.Errorf("refusing a bad rate at the size bound allocated %d bytes, want < 1 MiB", n)
	}

	// Judged, not submitted: a worker would go on to run it.
	spec.Sweep.Rates = []float64{0.02}
	if n := allocated(func() {
		if err := spec.validate(); err != nil {
			t.Errorf("valid spec at the size bound: %v", err)
		}
	}); n > 1<<20 {
		t.Errorf("accepting a valid spec at the size bound allocated %d bytes, want < 1 MiB", n)
	}
}

// TestSweepJobMatchesDirectRun: a completed sweep job's CSV must equal
// the rendering of direct traffic.Run results, and its per-point window
// series must be served at the metrics endpoint.
func TestSweepJobMatchesDirectRun(t *testing.T) {
	srv, m := startTestServer(t, t.TempDir(), 0)
	defer m.Shutdown()

	spec := testSweepSpec()
	st := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: spec}))
	if st.PointsTotal != 2 {
		t.Fatalf("points_total = %d, want 2", st.PointsTotal)
	}
	// Result before completion is a 409.
	deadline := time.Now().Add(time.Second)
	for {
		resp, err := http.Get(srv.URL + "/api/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusConflict {
			break
		}
		if resp.StatusCode == http.StatusOK || time.Now().After(deadline) {
			break // finished too fast to observe the 409; fine
		}
	}
	done := waitState(t, srv, st.ID, stateDone)
	if done.PointsDone != 2 {
		t.Fatalf("points_done = %d, want 2", done.PointsDone)
	}
	got := fetch(t, srv.URL+"/api/v1/jobs/"+st.ID+"/result", http.StatusOK)

	if want := directRunCSV(t, spec); string(got) != want {
		t.Fatalf("sweep CSV diverged from direct runs\nwant:\n%s\ngot:\n%s", want, got)
	}

	// The per-window series was published while the job ran.
	snap := fetch(t, srv.URL+"/api/v1/jobs/"+st.ID+"/metrics", http.StatusOK)
	if !bytes.Contains(snap, []byte("windows")) {
		t.Fatalf("metrics snapshot has no window series: %s", snap)
	}
}

// TestExperimentJobMatchesWormbenchCSV: experiment jobs must render
// exactly what `wormbench -run ID -quick -csv` prints.
func TestExperimentJobMatchesWormbenchCSV(t *testing.T) {
	srv, m := startTestServer(t, t.TempDir(), 0)
	defer m.Shutdown()

	st := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs",
		JobSpec{Type: "experiment", Experiment: &ExperimentSpec{ID: "T12", Seed: 42, Quick: true}}))
	waitState(t, srv, st.ID, stateDone)
	got := fetch(t, srv.URL+"/api/v1/jobs/"+st.ID+"/result", http.StatusOK)

	tables, err := core.Run(context.Background(), "T12", core.Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, tab := range tables {
		fmt.Fprintf(&want, "# %s\n", tab.Title())
		if err := tab.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		want.WriteString("\n")
	}
	if want.String() != string(got) {
		t.Fatalf("experiment CSV diverged from the CLI rendering\nwant:\n%s\ngot:\n%s", want.String(), got)
	}
}

// TestGracefulShutdownResumes is the SIGTERM round trip in-process: a
// manager is shut down mid-sweep, a second manager over the same state
// directory resumes from the checkpoint, and the final CSV is
// byte-identical to an uninterrupted job's.
func TestGracefulShutdownResumes(t *testing.T) {
	spec := testSweepSpec()
	spec.Measure = 2000 // checkpoints every 100 steps after the resume too
	spec.Drain = 800

	// Oracle: the same job, uninterrupted.
	oracleDir := t.TempDir()
	srvO, mO := startTestServer(t, oracleDir, 0)
	stO := decodeStatus(t, postJSON(t, srvO.URL+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: spec}))
	waitState(t, srvO, stO.ID, stateDone)
	want := fetch(t, srvO.URL+"/api/v1/jobs/"+stO.ID+"/result", http.StatusOK)
	mO.Shutdown()

	// Victim: shut down while running, held at its first checkpoint.
	dir := t.TempDir()
	srv1, m1 := startHeldServer(t, dir, 2, 100)
	st := decodeStatus(t, postJSON(t, srv1+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: spec}))
	waitStateURL(t, srv1, st.ID, stateRunning)
	m1.Shutdown()

	// The interrupted job was re-queued with a checkpoint on disk.
	blob, err := os.ReadFile(filepath.Join(dir, "jobs", st.ID, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var persisted JobStatus
	if err := json.Unmarshal(blob, &persisted); err != nil {
		t.Fatal(err)
	}
	if persisted.State != stateQueued {
		t.Fatalf("interrupted job persisted as %q, want queued", persisted.State)
	}
	// The shutdown checkpoint, at least, was taken and is on the record.
	ck := persisted.Checkpoints
	if ck == nil || ck.Written < 1 || ck.Failed != 0 || ck.LastBytes == 0 || ck.LastError != "" {
		t.Fatalf("interrupted job persisted checkpoints %+v, want written >= 1 and none failed", ck)
	}

	// What a kill -9 inside snap.WriteFile leaves behind: temp files that
	// were never renamed, in the job directory and its ckpt/ store.
	jobDir := filepath.Join(dir, "jobs", st.ID)
	if err := os.Mkdir(filepath.Join(jobDir, "ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	orphans := []string{"point-000.snap.tmp2718281828", "job.json.tmp31415", filepath.Join("ckpt", "s000-j000000.json.tmp1")}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(jobDir, name), bytes.Repeat([]byte("torn"), 1<<10), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Restart over the same state dir: the orphans are swept before the
	// job is re-queued, and the job resumes and completes.
	srv2, m2 := startTestServer(t, dir, 100)
	defer m2.Shutdown()
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(jobDir, name)); !os.IsNotExist(err) {
			t.Errorf("orphaned temp file %s survived the restart (stat: %v)", name, err)
		}
	}
	done := waitState(t, srv2, st.ID, stateDone)
	got := fetch(t, srv2.URL+"/api/v1/jobs/"+st.ID+"/result", http.StatusOK)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed sweep diverged from uninterrupted oracle\nwant:\n%s\ngot:\n%s", want, got)
	}
	// The tally carries over the restart and keeps counting, the clean
	// resume included.
	dk := done.Checkpoints
	if dk == nil || dk.Written <= ck.Written || dk.Failed != 0 || dk.TotalMs <= ck.TotalMs {
		t.Fatalf("finished job reports checkpoints %+v after %+v at the restart", dk, ck)
	}
	if dk.Restored < 1 || dk.RestoreRejected != 0 || dk.LastRestoreError != "" {
		t.Fatalf("a clean resume reports %+v, want restored >= 1 and nothing rejected", dk)
	}
}

// pausedRunner runs spec's sweep point at rate until its OnStep hook
// pauses it at step, state intact, and returns it with the config it
// restores under.
func pausedRunner(t *testing.T, spec *SweepSpec, rate float64, step int) (*traffic.Runner, traffic.Config) {
	t.Helper()
	net, err := spec.network()
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.config(net, rate)
	paused := cfg
	paused.OnStep = func(s int) error {
		if s == step {
			return errShutdown
		}
		return nil
	}
	r, err := traffic.NewRunner(paused)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); !errors.Is(err, errShutdown) {
		t.Fatalf("run did not pause: %v", err)
	}
	return r, cfg
}

// TestCheckpointMemoryIsFixed: a checkpoint streams into its file through
// a fixed buffer, so a worker's first checkpoint of a multi-MB runner
// allocates under a bound no checkpoint size moves (the half-MiB write
// buffer and a margin), and its second under 64 KiB. The file is magic,
// CRC-32 and the runner's Snapshot bytes, and it opens and restores.
func TestCheckpointMemoryIsFixed(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, 0, 0, snap.OS)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	spec := testSweepSpec()
	spec.Size, spec.Measure = 64, 4000
	r, cfg := pausedRunner(t, spec, 0.2, 3000)
	path := filepath.Join(t.TempDir(), "point-000.snap")
	for i, bound := range []uint64{768 << 10, 64 << 10} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		size, err := m.checkpointRunner(r, path)
		runtime.ReadMemStats(&after)
		if err != nil || size < 1<<20 {
			t.Fatalf("checkpoint %d: %d bytes, %v; want a multi-MB one", i+1, size, err)
		}
		grew := after.TotalAlloc - before.TotalAlloc
		if grew >= bound {
			t.Fatalf("checkpoint %d of %d bytes allocated %d bytes; want under %d KiB", i+1, size, grew, bound>>10)
		}
		t.Logf("checkpoint %d of %d bytes allocated %d bytes (bound %d KiB)", i+1, size, grew, bound>>10)
	}

	var payload bytes.Buffer
	if err := r.Snapshot(&payload); err != nil {
		t.Fatal(err)
	}
	want := binary.LittleEndian.AppendUint32([]byte("WHCKPT01"), crc32.ChecksumIEEE(payload.Bytes()))
	want = append(want, payload.Bytes()...)
	raw, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(raw, want) {
		t.Fatalf("checkpoint file (%d bytes, %v) is not magic+CRC+Snapshot (%d bytes)", len(raw), err, len(want))
	}
	blob, err := snap.Open(raw, errCorruptCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traffic.RestoreRunner(cfg, bytes.NewReader(blob)); err != nil {
		t.Fatalf("checkpoint does not restore: %v", err)
	}
}

// TestCancelJob: canceling a running job reaches a terminal canceled
// state and its result stays unavailable.
func TestCancelJob(t *testing.T) {
	srv, m := startTestServer(t, t.TempDir(), 0)
	defer m.Shutdown()

	spec := testSweepSpec()
	spec.Rates = []float64{0.05}
	spec.Measure = 200_000_000 // effectively unbounded: only cancel ends it
	spec.Window = 0            // 4 M windows would pass traffic.MaxWindows
	st := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: spec}))
	waitState(t, srv, st.ID, stateRunning)
	resp := postJSON(t, srv.URL+"/api/v1/jobs/"+st.ID+"/cancel", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	waitState(t, srv, st.ID, stateCanceled)
	fetch(t, srv.URL+"/api/v1/jobs/"+st.ID+"/result", http.StatusConflict)
}

// TestCancelWhileQueued: a job cancelled before any worker picks it up is
// canceled at pickup without running a step, and a cancel is final — the
// job's context keeps its first cause through the shutdown that follows.
func TestCancelWhileQueued(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, 0, 0, snap.OS)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newAPI(m))
	defer srv.Close()

	long := testSweepSpec()
	long.Measure = 200_000_000 // occupies the lone worker until cancel
	long.Window = 0            // 4 M windows would pass traffic.MaxWindows
	first := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: long}))
	waitState(t, srv, first.ID, stateRunning)
	second := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: testSweepSpec()}))

	if !m.Cancel(second.ID) || m.Cancel("nope") {
		t.Fatal("Cancel did not report which job exists")
	}
	if st := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs/"+second.ID+"/cancel", struct{}{})); st.State != stateQueued {
		t.Fatalf("cancelled-while-queued job is %q before pickup, want still queued", st.State)
	}
	m.Cancel(first.ID)
	waitState(t, srv, first.ID, stateCanceled)
	st := waitState(t, srv, second.ID, stateCanceled)
	if st.PointsDone != 0 {
		t.Fatalf("cancelled-while-queued job ran %d point(s)", st.PointsDone)
	}
	if _, err := os.Stat(filepath.Join(m.jobDir(second.ID), "point-000.json")); !os.IsNotExist(err) {
		t.Fatalf("cancelled-while-queued job left a finished point behind (stat: %v)", err)
	}
	m.Shutdown()
	for _, id := range []string{first.ID, second.ID} {
		if j, _ := m.Get(id); j.snapshotStatus().State != stateCanceled {
			t.Errorf("job %s is %q after shutdown, want canceled", id, j.snapshotStatus().State)
		}
	}
}

// TestCancelRunningExperiment: cancelling a running experiment stops it
// at its next harness job — through core.Run's error return, no panic —
// keeps what it finished in its checkpoint store, and leaves the daemon
// running other work.
func TestCancelRunningExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-scale experiment until cancelled")
	}
	srv, m := startTestServer(t, t.TempDir(), 0)
	defer m.Shutdown()

	st := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs",
		JobSpec{Type: "experiment", Experiment: &ExperimentSpec{ID: "T12", Seed: 42}}))
	waitState(t, srv, st.ID, stateRunning)
	ckpt := filepath.Join(m.jobDir(st.ID), "ckpt")
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if stored, _ := os.ReadDir(ckpt); len(stored) > 0 {
			break // mid-fan-out: some harness jobs done, most not
		}
		if time.Now().After(deadline) {
			t.Fatal("the experiment never finished a harness job")
		}
	}
	resp := postJSON(t, srv.URL+"/api/v1/jobs/"+st.ID+"/cancel", struct{}{})
	resp.Body.Close()
	canceled := waitState(t, srv, st.ID, stateCanceled)
	if canceled.Error != "" {
		t.Fatalf("canceled experiment carries error %q", canceled.Error)
	}
	fetch(t, srv.URL+"/api/v1/jobs/"+st.ID+"/result", http.StatusConflict)

	next := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs",
		JobSpec{Type: "experiment", Experiment: &ExperimentSpec{ID: "T1", Seed: 42, Quick: true}}))
	waitState(t, srv, next.ID, stateDone)
}

// TestStalePointMemoRecomputed: a point-K.json is replayed only if it is
// a faithful pointResult as the type is now. A memo written before
// traffic.Result changed shape (a daemon restarted over a live state dir
// after an upgrade) used to decode into zeroed fields and be served as a
// finished point; it is recomputed and overwritten. A memo this build
// wrote still replays without re-running the point.
func TestStalePointMemoRecomputed(t *testing.T) {
	spec := testSweepSpec()
	want := directRunCSV(t, spec)
	specJSON, err := json.Marshal(JobSpec{Type: "sweep", Sweep: spec})
	if err != nil {
		t.Fatal(err)
	}
	queued := `{"id":"j000000","type":"sweep","state":"queued","points_total":2,"created_unix":1,"spec":` + string(specJSON) + `}`

	const stale = `{"rate":0.02,"result":{"OfferedLoad":0.02}}`
	dir := plantJob(t, "j000000", map[string]string{"job.json": queued, "point-000.json": stale})
	srv, m := startTestServer(t, dir, 0)
	waitState(t, srv, "j000000", stateDone)
	if got := fetch(t, srv.URL+"/api/v1/jobs/j000000/result", http.StatusOK); string(got) != want {
		t.Fatalf("a stale point memo was served as a finished point\nwant:\n%s\ngot:\n%s", want, got)
	}
	memoPath := filepath.Join(m.jobDir("j000000"), "point-000.json")
	memo, err := os.ReadFile(memoPath)
	if err != nil || string(memo) == stale {
		t.Fatalf("the stale memo was not overwritten (%v): %s", err, memo)
	}
	m.Shutdown()
	srv.Close()

	// Replay: mark the fresh memo so a replayed point is told from a
	// recomputed one, re-queue the job, and look for the mark.
	var pr pointResult
	if err := json.Unmarshal(memo, &pr); err != nil {
		t.Fatal(err)
	}
	pr.Result.Steps = 987654321
	if memo, err = json.Marshal(pr); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"point-000.json": string(memo), "job.json": queued} {
		if err := os.WriteFile(filepath.Join(m.jobDir("j000000"), name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv2, m2 := startTestServer(t, dir, 0)
	defer m2.Shutdown()
	waitState(t, srv2, "j000000", stateDone)
	rows := strings.Split(string(fetch(t, srv2.URL+"/api/v1/jobs/j000000/result", http.StatusOK)), "\n")
	if !strings.Contains(rows[1], ",987654321,") || rows[2] != strings.Split(want, "\n")[2] {
		t.Fatalf("a faithful memo was not replayed (or the other point moved):\n%s", strings.Join(rows, "\n"))
	}
}

// TestSubmitPersistFailureLeavesNoPhantom: a submission whose job
// directory cannot be created is an error and nothing else — no queued
// job in List or /metrics that no worker will ever run — and the next
// submission is unaffected.
func TestSubmitPersistFailureLeavesNoPhantom(t *testing.T) {
	dir := t.TempDir()
	srv, m := startTestServer(t, dir, 0)
	defer m.Shutdown()

	// A regular file where the first job's directory must go: ENOTDIR.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j000000"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Type: "sweep", Sweep: testSweepSpec()}
	if st, err := m.Submit(spec); err == nil {
		t.Fatalf("Submit over a blocked job dir succeeded: %+v", st)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("failed Submit left %d job(s) behind: %+v", len(jobs), jobs)
	}
	var gauges map[string]any
	if err := json.Unmarshal(fetch(t, srv.URL+"/metrics", http.StatusOK), &gauges); err != nil {
		t.Fatal(err)
	}
	if n := gauges["jobs_total"]; n != float64(0) {
		t.Fatalf("/metrics reports jobs_total = %v after a failed Submit", n)
	}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, st.ID, stateDone)
}

// TestHealthAndMetricsEndpoints covers the ops surface.
func TestHealthAndMetricsEndpoints(t *testing.T) {
	srv, m := startTestServer(t, t.TempDir(), 0)
	defer m.Shutdown()

	if body := fetch(t, srv.URL+"/healthz", http.StatusOK); !bytes.Contains(body, []byte("true")) {
		t.Fatalf("healthz: %s", body)
	}
	var gauges map[string]any
	if err := json.Unmarshal(fetch(t, srv.URL+"/metrics", http.StatusOK), &gauges); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jobs_total", "jobs_running", "uptime_sec"} {
		if _, ok := gauges[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, gauges)
		}
	}
	fetch(t, srv.URL+"/api/v1/jobs/nope", http.StatusNotFound)
}

// TestPanickingExperimentFailsJobNotDaemon is the regression for a
// one-request crash loop: an experiment that panics mid-run (submission
// can only validate the spec, not rule out bugs) must become that job's
// failure — not take the worker goroutine and the process with it, and
// not re-kill every restart whose startup recovery re-queues the
// running job. The panic is a real one, raised by a run function
// swapped in for core.Run on one experiment ID.
func TestPanickingExperimentFailsJobNotDaemon(t *testing.T) {
	orig := runCore
	defer func() { runCore = orig }()
	runCore = func(ctx context.Context, id string, cfg core.Config) ([]*stats.Table, error) {
		if id == "T2" {
			panic("T2: injected test panic")
		}
		return core.Run(ctx, id, cfg)
	}

	dir := t.TempDir()
	srv, m := startTestServer(t, dir, 0)

	bad := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs",
		JobSpec{Type: "experiment", Experiment: &ExperimentSpec{ID: "T2", Quick: true}}))
	failed := waitState(t, srv, bad.ID, stateFailed)
	if !strings.Contains(failed.Error, "injected test panic") {
		t.Fatalf("failed job's error %q does not carry the panic text", failed.Error)
	}

	// The daemon survived: it answers health checks and runs new work.
	fetch(t, srv.URL+"/healthz", http.StatusOK)
	good := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs",
		JobSpec{Type: "experiment", Experiment: &ExperimentSpec{ID: "T1", Seed: 42, Quick: true}}))
	waitState(t, srv, good.ID, stateDone)
	m.Shutdown()
	srv.Close()

	// A restart over the same state dir comes up, with the bad job still
	// failed rather than re-queued.
	srv2, m2 := startTestServer(t, dir, 0)
	defer m2.Shutdown()
	fetch(t, srv2.URL+"/healthz", http.StatusOK)
	if st := waitState(t, srv2, bad.ID, stateFailed); st.Error != failed.Error {
		t.Fatalf("recovered job error %q, want %q", st.Error, failed.Error)
	}
}

// TestPersistedBadScaleFailsJob: submission now rejects a scale the
// experiment cannot run, but a job.json persisted by a daemon that did
// not may still carry one. Recovery must fail that job through
// core.Run's error return — no panic, no recover.
func TestPersistedBadScaleFailsJob(t *testing.T) {
	dir := plantJob(t, "j000000", map[string]string{"job.json": `{"id":"j000000","type":"experiment","state":"queued","created_unix":1,
		"spec":{"type":"experiment","experiment":{"id":"T15","scale":100}}}`})
	srv, m := startTestServer(t, dir, 0)
	defer m.Shutdown()
	st := waitState(t, srv, "j000000", stateFailed)
	if !strings.Contains(st.Error, "power-of-two") || strings.Contains(st.Error, "panicked") {
		t.Fatalf("job error %q, want the validation error, not a recovered panic", st.Error)
	}
}

// TestRetiredSpecFieldAccepted pins upgrade compatibility: earlier
// daemons accepted a "shards" knob on both spec types and persisted it
// in job.json. The knob is gone, the decoders are lenient, and both a
// request body and a recovered state dir that still carry it must run.
func TestRetiredSpecFieldAccepted(t *testing.T) {
	const oldSweep = `{"type":"sweep","sweep":{"topology":"butterfly","size":8,
		"virtual_channels":2,"message_length":4,"process":"bernoulli",
		"rates":[0.02],"warmup":40,"measure":160,"drain":400,"seed":17,"shards":4}}`

	// A job an older daemon left queued, shard_note and all.
	dir := plantJob(t, "j000000", map[string]string{"job.json": `{"id":"j000000","type":"sweep","state":"queued","points_total":1,
		"shard_note":"shards=4 requested but no step ran sharded","created_unix":1,"spec":` + oldSweep + `}`})

	srv, m := startTestServer(t, dir, 0)
	defer m.Shutdown()
	waitState(t, srv, "j000000", stateDone)
	want := fetch(t, srv.URL+"/api/v1/jobs/j000000/result", http.StatusOK)

	for name, body := range map[string]string{
		"sweep":      oldSweep,
		"experiment": `{"type":"experiment","experiment":{"id":"T1","seed":42,"quick":true,"shards":4}}`,
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s body carrying \"shards\": status %d, want 202", name, resp.StatusCode)
		}
		st := decodeStatus(t, resp)
		waitState(t, srv, st.ID, stateDone)
		if name == "sweep" {
			if got := fetch(t, srv.URL+"/api/v1/jobs/"+st.ID+"/result", http.StatusOK); !bytes.Equal(want, got) {
				t.Fatalf("submitted and recovered sweeps diverged\nrecovered:\n%s\nsubmitted:\n%s", want, got)
			}
		}
	}
}

// TestStatusPollsWhileJobsRun: a status poll must not wait for a running
// job to give up its P. With every P stepping a job, a runnable handler
// has none to run on, and Go takes one back only by preempting a goroutine
// 10 ms into its slice — so without the jobs' own yields each poll waited
// out that slice. GOMAXPROCS(1) makes one running job hold every P. The
// poll wakes from a 1 ms sleep and serves GET /api/v1/jobs/<id> through
// the API handler; in the median of 21 polls it must be done within 5 ms
// of the moment it was due. (Over a socket a poll also waits for the
// runtime to notice the request, which with every P busy only sysmon
// does, every 10 ms; no yield removes that part.)
func TestStatusPollsWhileJobsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("polls two long jobs")
	}
	if raceDetector {
		t.Skip("the race detector slows a flit step about tenfold, so a yield interval outlasts the 5 ms budget")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sweep := testSweepSpec()
	sweep.Size, sweep.Rates, sweep.Measure, sweep.Window = 64, []float64{0.25}, 1<<22, 0
	for _, spec := range []JobSpec{
		{Type: "sweep", Sweep: sweep},
		{Type: "experiment", Experiment: &ExperimentSpec{ID: "T12", Seed: 42}},
	} {
		t.Run(spec.Type, func(t *testing.T) {
			srv, m := startTestServer(t, t.TempDir(), 0)
			defer m.Shutdown()
			st := decodeStatus(t, postJSON(t, srv.URL+"/api/v1/jobs", spec))
			waitState(t, srv, st.ID, stateRunning)
			api := newAPI(m)
			var lat []time.Duration
			for range 21 {
				due := time.Now().Add(time.Millisecond)
				time.Sleep(time.Millisecond)
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+st.ID, nil))
				lat = append(lat, time.Since(due))
				var polled JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &polled); err != nil {
					t.Fatal(err)
				}
				if polled.State != stateRunning {
					t.Fatalf("the job was %s before the polls ended", polled.State)
				}
			}
			postJSON(t, srv.URL+"/api/v1/jobs/"+st.ID+"/cancel", struct{}{}).Body.Close()
			waitState(t, srv, st.ID, stateCanceled)
			slices.Sort(lat)
			t.Logf("status poll while the job runs: median %v, max %v past due", lat[len(lat)/2], lat[len(lat)-1])
			if med := lat[len(lat)/2]; med > 5*time.Millisecond {
				t.Errorf("the median status poll finished %v past due while a job ran, want < 5ms: the job does not yield its P", med)
			}
		})
	}
}

// TestCheckpointFrame: the file checkpointRunner streams is what runPoint
// opens, and the two corruptions a crash or a bad disk leaves — a torn
// write, a flipped byte — come back as errCorruptCheckpoint. (The
// exhaustive every-offset check lives with the frame, in internal/snap.)
func TestCheckpointFrame(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, 0, 0, snap.OS)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	r, _ := pausedRunner(t, testSweepSpec(), 0.05, 100)
	var payload bytes.Buffer
	if err := r.Snapshot(&payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "point-000.snap")
	if _, err := m.checkpointRunner(r, path); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	got, err := snap.Open(sealed, errCorruptCheckpoint)
	if err != nil || !bytes.Equal(got, payload.Bytes()) {
		t.Fatalf("roundtrip: %v (%d bytes, want %d)", err, len(got), payload.Len())
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

// TestAdmissionCap: submissions over -max-queued get 429 with
// Retry-After, and nothing is persisted for the rejected job.
func TestAdmissionCap(t *testing.T) {
	dir := t.TempDir()
	m, err := newManager(dir, 1, 0, 1, snap.OS)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	srv := newTestHTTP(t, m)

	long := testSweepSpec()
	long.Rates = []float64{0.05}
	long.Measure = 200_000_000 // occupies the lone worker until cancel
	long.Window = 0            // 4 M windows would pass traffic.MaxWindows

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

// slowSyncFS is snap.OS with a directory sync that takes 20 ms, as on a
// slow disk: every submission spends that long persisting its job.
type slowSyncFS struct{ snap.FS }

func (f slowSyncFS) SyncDir(dir string) error {
	time.Sleep(20 * time.Millisecond)
	return f.FS.SyncDir(dir)
}

// TestAdmissionCapHoldsUnderConcurrentSubmits: with the lone worker busy
// and -max-queued 1, eight concurrent submissions over a slow disk admit
// one job and get seven prompt 429s. When the cap was read before the
// submission lock, all eight passed it: one got its 202, and the other
// seven persisted their jobs and then blocked on the full queue with no
// answer, past the client's timeout.
func TestAdmissionCapHoldsUnderConcurrentSubmits(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, 0, 1, slowSyncFS{snap.OS})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	srv := newTestHTTP(t, m)

	long := testSweepSpec()
	long.Rates = []float64{0.05}
	long.Measure = 200_000_000 // occupies the lone worker until cancel
	long.Window = 0            // 4 M windows would pass traffic.MaxWindows
	blob, err := json.Marshal(JobSpec{Type: "sweep", Sweep: long})
	if err != nil {
		t.Fatal(err)
	}
	first := decodeStatus(t, postJSON(t, srv+"/api/v1/jobs", JobSpec{Type: "sweep", Sweep: long}))
	waitStateURL(t, srv, first.ID, stateRunning) // queue is empty again

	client := &http.Client{Timeout: 3 * time.Second}
	codes := make([]int, 8) // 0: no answer in time
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(srv+"/api/v1/jobs", "application/json", bytes.NewReader(blob))
			if err == nil {
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}
		}()
	}
	wg.Wait()
	admitted := 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			admitted++
		case http.StatusTooManyRequests:
		default:
			t.Errorf("submission %d: status %d, want 202 or 429 (0 is no answer within 3 s)", i, code)
		}
	}
	if admitted != 1 {
		t.Errorf("%d of 8 concurrent submissions admitted into a one-job queue, want 1", admitted)
	}
	jobs := m.List()
	if len(jobs) != 2 {
		t.Errorf("%d jobs listed, want 2: the running one and the one queued", len(jobs))
	}
	for _, st := range jobs { // unblock the pool so Shutdown does not wait
		m.Cancel(st.ID)
	}
}

// TestJobBodyCap: a submission over maxJobBody is a 413, not an
// unbounded read.
func TestJobBodyCap(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, 0, 0, snap.OS)
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
	m, err := newManager(t.TempDir(), 2, 0, 0, snap.OS)
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
	m, err := newManager(t.TempDir(), 1, 0, 0, snap.OS)
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

// TestRejectedRestoreIsOnTheRecord: a checkpoint the integrity frame
// refuses costs the point its resume, not its correctness — and the job's
// status, not only stderr, says a restore was rejected and why.
func TestRejectedRestoreIsOnTheRecord(t *testing.T) {
	spec := testSweepSpec()
	spec.Measure, spec.Drain = 2000, 800

	dir := t.TempDir()
	srv1, m1 := startHeldServer(t, dir, 1, 100)
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

	m2, err := newManager(dir, 1, 100, 0, snap.OS)
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
