package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"wormhole/internal/snap"
	"wormhole/internal/stats"
)

// memStore is an in-memory BlobStore for tests. It logs every key it is
// asked for, in order, and counts the asks it could answer.
type memStore struct {
	mu     sync.Mutex
	blobs  map[string][]byte
	loaded []string
	hits   int
	saves  atomic.Int64
}

func newMemStore() *memStore { return &memStore{blobs: map[string][]byte{}} }

func (m *memStore) Load(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loaded = append(m.loaded, key)
	b, ok := m.blobs[key]
	if ok {
		m.hits++
	}
	return b, ok
}

func (m *memStore) Save(key string, blob []byte) {
	m.saves.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[key] = append([]byte(nil), blob...)
}

// TestCheckpointReplaysJobs: a second run of the same fan-out against
// the same store must compute nothing and return identical results.
func TestCheckpointReplaysJobs(t *testing.T) {
	store := newMemStore()
	var computed atomic.Int64
	job := func(i int) int {
		computed.Add(1)
		return i*i + 7
	}
	cfg := Config{Workers: 4, Checkpoint: &Checkpoint{Store: store}}
	first := mapJobs(cfg, 50, job)
	if n := computed.Load(); n != 50 {
		t.Fatalf("first run computed %d of 50 jobs", n)
	}
	if len(store.blobs) != 50 {
		t.Fatalf("store holds %d blobs, want 50", len(store.blobs))
	}

	cfg.Checkpoint = &Checkpoint{Store: store} // fresh Checkpoint, same store
	second := mapJobs(cfg, 50, job)
	if n := computed.Load(); n != 50 {
		t.Fatalf("replay recomputed jobs: %d total computations", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("replayed results diverged")
	}
}

// TestCheckpointStageCounter: successive fan-outs under one Checkpoint
// get distinct stages, so equal indices in different fan-outs never
// collide.
func TestCheckpointStageCounter(t *testing.T) {
	store := newMemStore()
	cfg := Config{Workers: 2, Checkpoint: &Checkpoint{Store: store}}
	a := mapJobs(cfg, 5, func(i int) int { return i })
	b := mapJobs(cfg, 5, func(i int) int { return 100 + i })
	if len(store.blobs) != 10 {
		t.Fatalf("store holds %d blobs, want 10 (stage collision?)", len(store.blobs))
	}
	// Replay both stages in program order with a fresh Checkpoint.
	cfg.Checkpoint = &Checkpoint{Store: store}
	a2 := mapJobs(cfg, 5, func(i int) int { t.Error("stage 0 recomputed"); return -1 })
	b2 := mapJobs(cfg, 5, func(i int) int { t.Error("stage 1 recomputed"); return -1 })
	if !reflect.DeepEqual(a, a2) || !reflect.DeepEqual(b, b2) {
		t.Fatal("replay diverged across stages")
	}
}

// TestCheckpointSkipsUnfaithfulTypes: a job result that does not
// round-trip JSON (unexported fields) must never be stored — those jobs
// re-run, which is slow but correct.
func TestCheckpointSkipsUnfaithfulTypes(t *testing.T) {
	type opaque struct {
		Visible int
		hidden  int
	}
	store := newMemStore()
	cfg := Config{Workers: 2, Checkpoint: &Checkpoint{Store: store}}
	out := mapJobs(cfg, 8, func(i int) opaque { return opaque{Visible: i, hidden: i*3 + 1} })
	if len(store.blobs) != 0 {
		t.Fatalf("%d unfaithful blobs were stored", len(store.blobs))
	}
	for i, o := range out {
		if o.hidden != i*3+1 {
			t.Fatalf("job %d result corrupted: %+v", i, o)
		}
	}
}

// TestInterruptAbortsAndResumes is the graceful-shutdown round trip: a
// run whose context is cancelled mid-fan-out returns the context's cause
// — no panic reaches the caller, at one worker or several — with the jobs
// that completed stored, and the re-run resumes from the store to the
// exact result of an uninterrupted run.
func TestInterruptAbortsAndResumes(t *testing.T) {
	oracle := mapJobs(Config{Workers: 1}, 40, func(i int) int { return i * 11 })
	errStop := errors.New("test: stop after 13 jobs")

	for _, workers := range []int{1, 4} {
		store := newMemStore()
		var done atomic.Int64
		var out []int
		ctx, cancel := context.WithCancelCause(context.Background())
		// A probe experiment, registered for this test only: Run is where
		// a cancelled fan-out is caught, so the test goes through Run.
		registry["cancel-probe"] = Experiment{ID: "cancel-probe", Run: func(cfg Config) []*stats.Table {
			out = mapJobs(cfg, 40, func(i int) int {
				if done.Add(1) == 13 {
					cancel(errStop)
				}
				return i * 11
			})
			return nil
		}}
		defer delete(registry, "cancel-probe")
		run := func(ctx context.Context) error {
			_, err := Run(ctx, "cancel-probe", Config{Workers: workers, Checkpoint: &Checkpoint{Store: store}})
			return err
		}

		if err := run(ctx); err != errStop {
			t.Fatalf("workers=%d: cancelled run returned %v, want the context's cause %v", workers, err, errStop)
		}
		stored := len(store.blobs)
		if stored < 13 || stored >= 40 {
			t.Fatalf("workers=%d: cancelled run stored %d of 40 jobs, want the 13 that ran (plus any in flight)", workers, stored)
		}

		ran := done.Load()
		if err := run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, out) {
			t.Fatalf("workers=%d: resumed run diverged from the uninterrupted oracle", workers)
		}
		if n := done.Load() - ran; n != int64(40-stored) {
			t.Fatalf("workers=%d: resume ran %d jobs with %d of 40 stored", workers, n, stored)
		}
	}
}

// TestCheckpointExperimentByteIdentity runs a real experiment through a
// DirStore checkpoint: the checkpointed run, the resumed run, and the
// plain run must render byte-identical tables.
func TestCheckpointExperimentByteIdentity(t *testing.T) {
	render := func(tables []*stats.Table) string {
		var s string
		for _, tab := range tables {
			s += tab.String() + "\n"
		}
		return s
	}
	plain, err := Run(context.Background(), "T12", Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first, err := Run(context.Background(), "T12", Config{Seed: 42, Quick: true,
		Checkpoint: &Checkpoint{Store: DirStore{FS: snap.OS, Dir: dir}}})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("checkpointed run stored nothing; T12 rows no longer round-trip JSON")
	}
	resumed, err := Run(context.Background(), "T12", Config{Seed: 42, Quick: true,
		Checkpoint: &Checkpoint{Store: DirStore{FS: snap.OS, Dir: dir}}})
	if err != nil {
		t.Fatal(err)
	}
	if w, g := render(plain), render(first); w != g {
		t.Fatalf("checkpointed run diverged\nwant:\n%s\ngot:\n%s", w, g)
	}
	if w, g := render(plain), render(resumed); w != g {
		t.Fatalf("resumed run diverged\nwant:\n%s\ngot:\n%s", w, g)
	}
}

// renderCSV runs experiment id under cfg, checkpointed into store when
// it is non-nil, and returns its CSV.
func renderCSV(t *testing.T, id string, cfg Config, store BlobStore) string {
	t.Helper()
	if store != nil {
		cfg.Checkpoint = &Checkpoint{Store: store}
	}
	tables, err := Run(context.Background(), id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := stats.WriteTablesCSV(&b, tables); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCheckpointStaleBlobsRecomputed is the upgrade-safety contract of
// the load side. testdata/ckpt_parent_T12 holds two blobs a build from
// before T12's row type changed wrote for `-run T12 -quick -seed 42`
// (curve row 0 and the B = 1 bisection, its stage 0 and stage 1 job 0).
// Planted under the keys this build looks those jobs up by, both still
// json.Unmarshal into the current type without error — into zeroed
// fields — so replaying them would silently corrupt the tables. They
// must be recomputed and overwritten; blobs this build wrote must still
// replay.
func TestCheckpointStaleBlobsRecomputed(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true}
	render := func(store BlobStore) string { return renderCSV(t, "T12", cfg, store) }
	plain := render(nil)

	// T12 quick is one fan-out of 6 curve rows and 2 bisections, issued
	// in reverse table order: curve row 0 is job 7, the B = 1 bisection
	// job 1.
	cp := (&Checkpoint{}).scoped("T12", cfg)
	store := newMemStore()
	stale := map[string][]byte{}
	for file, key := range map[string]string{
		"s000-j000000.json": cp.key(0, 8, 7),
		"s001-j000000.json": cp.key(0, 8, 1),
	} {
		blob, err := os.ReadFile(filepath.Join("testdata", "ckpt_parent_T12", file))
		if err != nil {
			t.Fatal(err)
		}
		stale[key] = blob
		store.blobs[key] = blob
	}
	if got := render(store); got != plain {
		t.Fatalf("run over stale blobs diverged from a plain run\nwant:\n%s\ngot:\n%s", plain, got)
	}
	for key, blob := range stale {
		if bytes.Equal(store.blobs[key], blob) {
			t.Errorf("%s: stale blob was not overwritten", key)
		}
	}
	jobs := int64(len(store.blobs))
	if n := store.saves.Load(); n != jobs {
		t.Fatalf("first run saved %d blobs for %d jobs", n, jobs)
	}

	if got := render(store); got != plain {
		t.Fatalf("resumed run diverged\nwant:\n%s\ngot:\n%s", plain, got)
	}
	if n := store.saves.Load(); n != jobs {
		t.Errorf("resume recomputed %d jobs; blobs written by this build must replay", n-jobs)
	}
}

// TestCheckpointKeysScopedToRun: a store reused by a run under another
// Config — another seed, quick then full, another scale — or written
// by a build that laid T12 out as two fan-outs (curve rows at stage 0,
// bisections at stage 1) replays nothing into the run: it recomputes
// every job and prints what a plain run prints.
func TestCheckpointKeysScopedToRun(t *testing.T) {
	quick42 := Config{Seed: 42, Quick: true}
	for _, tc := range []struct {
		name  string
		prime func(t *testing.T, store *memStore) // fills the store
		id    string                              // then runs id under cfg
		cfg   Config
	}{
		{"seed", func(t *testing.T, s *memStore) {
			renderCSV(t, "T12", Config{Seed: 1, Quick: true}, s)
		}, "T12", Config{Seed: 2, Quick: true}},
		// T16 is the study whose full scale costs milliseconds.
		{"quick then full", func(t *testing.T, s *memStore) {
			renderCSV(t, "T16", Config{Seed: 1, Quick: true}, s)
		}, "T16", Config{Seed: 1}},
		{"scale", func(t *testing.T, s *memStore) {
			renderCSV(t, "T15", Config{Seed: 1, Quick: true, Scale: 256}, s)
		}, "T15", Config{Seed: 1, Quick: true, Scale: 512}},
		{"two-stage T12 layout", func(t *testing.T, s *memStore) {
			g, err := t12.geometry(quick42)
			if err != nil {
				t.Fatal(err)
			}
			curve, sat := t12.measure(quick42, g)
			for stage, pts := range [][]point{curve, sat} {
				for j, p := range pts {
					StoreMemo(s, fmt.Sprintf("s%03d-j%06d.json", stage, j), p)
				}
			}
		}, "T12", quick42},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := newMemStore()
			tc.prime(t, store)
			if len(store.blobs) == 0 {
				t.Fatal("priming stored nothing")
			}
			store.hits = 0
			plain := renderCSV(t, tc.id, tc.cfg, nil)
			if got := renderCSV(t, tc.id, tc.cfg, store); got != plain {
				t.Errorf("run over a reused store diverged from a plain run\nwant:\n%s\ngot:\n%s", plain, got)
			}
			if store.hits != 0 {
				t.Errorf("%d jobs replayed from another run's blobs", store.hits)
			}
		})
	}
}

// TestDirStoreAtomicRoundTrip covers the filesystem BlobStore.
func TestDirStoreAtomicRoundTrip(t *testing.T) {
	d := DirStore{FS: snap.OS, Dir: t.TempDir() + "/nested/store"}
	if _, ok := d.Load("missing.json"); ok {
		t.Fatal("Load invented a blob")
	}
	d.Save("a.json", []byte(`{"x":1}`))
	blob, ok := d.Load("a.json")
	if !ok || string(blob) != `{"x":1}` {
		t.Fatalf("round trip: %q %v", blob, ok)
	}
	d.Save("a.json", []byte(`{"x":2}`)) // overwrite
	if blob, _ := d.Load("a.json"); string(blob) != `{"x":2}` {
		t.Fatalf("overwrite: %q", blob)
	}
}

// TestDirStoreSaveFailureIsSilent pins the degradation contract: a
// store that cannot write (here, the directory path is occupied by a
// regular file) drops the blob without panicking, and a later Load
// simply misses — the checkpoint layer re-runs the job.
func TestDirStoreSaveFailureIsSilent(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := DirStore{FS: snap.OS, Dir: filepath.Join(file, "store")}
	d.Save("a.json", []byte(`{"x":1}`))
	if _, ok := d.Load("a.json"); ok {
		t.Fatal("Load found a blob the failed Save should have dropped")
	}
}
