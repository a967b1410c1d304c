package core

import (
	"bytes"
	"context"
	"errors"
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
	cfg := Config{Workers: 4, Checkpoint: store}
	first := mapJobs(cfg, 50, job)
	if n := computed.Load(); n != 50 {
		t.Fatalf("first run computed %d of 50 jobs", n)
	}
	if len(store.blobs) != 50 {
		t.Fatalf("store holds %d blobs, want 50", len(store.blobs))
	}

	second := mapJobs(cfg, 50, job)
	if n := computed.Load(); n != 50 {
		t.Fatalf("replay recomputed jobs: %d total computations", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("replayed results diverged")
	}
}

// TestCheckpointSkipsUnfaithfulTypes: a value that does not round-trip
// JSON (here, an unexported field JSON drops) must never be stored —
// its job re-runs, which is slow but correct. A value of the same type
// that does round-trip is stored. wormholed's finished sweep points
// rely on the same proof.
func TestCheckpointSkipsUnfaithfulTypes(t *testing.T) {
	type opaque struct {
		Visible int
		hidden  int
	}
	store := newMemStore()
	StoreMemo(store, "unfaithful.json", opaque{Visible: 1, hidden: 4})
	if len(store.blobs) != 0 {
		t.Fatalf("an unfaithful blob was stored: %q", store.blobs)
	}
	StoreMemo(store, "faithful.json", opaque{Visible: 1})
	if got, ok := LoadMemo[opaque](store, "faithful.json"); !ok || got != (opaque{Visible: 1}) {
		t.Fatalf("a faithful value did not replay: %+v %v", got, ok)
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
			_, err := Run(ctx, "cancel-probe", Config{Workers: workers, Checkpoint: store})
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

// quickLegs is one experiment's share of the registry pass at -quick
// -seed 42, run three ways: plain at the default worker count;
// checkpointed into a fresh store at one worker, which asks the store
// for one fan-out's keys in the order the jobs are handed out (which job
// comes first is the engine's rule, pinned by TestJobsIssuedLastFirst);
// and resumed over that store at the default worker count. Each
// experiment runs once per test binary: TestCheckpointExperimentByteIdentity,
// TestJobLayout and the quick goldens read the same legs.
type quickLegs struct {
	plain, serial, resumed string          // each leg's CSV
	asked                  []string        // keys the checkpointed leg asked for, in order
	stored                 map[string]bool // keys the checkpointed leg stored
	saves                  int64           // blobs the checkpointed leg stored
	recomputed             int64           // blobs the resume stored
	replayed               int             // jobs the resume loaded
}

var (
	quickMu   sync.Mutex
	quickRuns = map[string]*quickLegs{}
)

// quickPass returns experiment id's legs, running them on first use.
func quickPass(t *testing.T, id string) *quickLegs {
	t.Helper()
	quickMu.Lock()
	defer quickMu.Unlock()
	if l, ok := quickRuns[id]; ok {
		return l
	}
	quick42 := Config{Seed: 42, Quick: true}
	serial := quick42
	serial.Workers = 1
	store := newMemStore()
	l := &quickLegs{plain: renderCSV(t, id, quick42, nil), serial: renderCSV(t, id, serial, store)}
	l.asked = append([]string(nil), store.loaded...)
	l.stored = map[string]bool{}
	for key := range store.blobs {
		l.stored[key] = true
	}
	l.saves = store.saves.Load()
	hits := store.hits
	l.resumed = renderCSV(t, id, quick42, store)
	l.recomputed = store.saves.Load() - l.saves
	l.replayed = store.hits - hits
	quickRuns[id] = l
	return l
}

// TestCheckpointExperimentByteIdentity: for every registered experiment,
// the checkpointed leg of the registry pass stores a blob per job (F2
// runs none), the resume recomputes nothing and replays every job, and
// all three legs render the same CSV. T12 also runs through a DirStore.
// Building a workload (a *Problem) is not a job: it runs outside
// mapJobs, unmemoized, so a resumed run builds it again.
func TestCheckpointExperimentByteIdentity(t *testing.T) {
	quick42 := Config{Seed: 42, Quick: true}
	t.Run("T12-DirStore", func(t *testing.T) {
		dir := t.TempDir()
		store := DirStore{FS: snap.OS, Dir: dir}
		plain := renderCSV(t, "T12", quick42, nil)
		if got := renderCSV(t, "T12", quick42, store); got != plain {
			t.Fatalf("checkpointed run diverged\nwant:\n%s\ngot:\n%s", plain, got)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Fatal("checkpointed run stored nothing; T12 rows no longer round-trip JSON")
		}
		if got := renderCSV(t, "T12", quick42, store); got != plain {
			t.Fatalf("resumed run diverged\nwant:\n%s\ngot:\n%s", plain, got)
		}
	})
	for _, e := range Experiments() {
		id := e.ID
		t.Run(id, func(t *testing.T) {
			l := quickPass(t, id)
			if l.serial != l.plain {
				t.Fatalf("checkpointed run diverged\nwant:\n%s\ngot:\n%s", l.plain, l.serial)
			}
			jobs := len(l.asked)
			if (jobs == 0) != (id == "F2") || l.saves != int64(jobs) {
				t.Fatalf("checkpointed run stored %d blobs for %d jobs", l.saves, jobs)
			}
			if l.resumed != l.plain {
				t.Fatalf("resumed run diverged\nwant:\n%s\ngot:\n%s", l.plain, l.resumed)
			}
			if l.recomputed != 0 || l.replayed != jobs {
				t.Errorf("resume recomputed %d of %d jobs (%d replayed)", l.recomputed, jobs, l.replayed)
			}
		})
	}
}

// renderCSV runs experiment id under cfg, checkpointed into store when
// it is non-nil, and returns its CSV.
func renderCSV(t *testing.T, id string, cfg Config, store BlobStore) string {
	t.Helper()
	cfg.Checkpoint = store
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
	run := Config{prefix: runPrefix("T12", cfg)}
	store := newMemStore()
	stale := map[string][]byte{}
	for file, key := range map[string]string{
		"s000-j000000.json": run.key(8, 7),
		"s001-j000000.json": run.key(8, 1),
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
// by a build before the batch engine, before T10 joined it, before T12
// did or before the keys lost their stage, replays nothing into the
// run: it recomputes every job and prints what a plain run prints.
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
		// What the build before T12–T16 joined the engine wrote for the
		// same run: point blobs, its one 8-job fan-out of the same length
		// as this build's, under layout 2.
		{"parent T12 layout", plantParent("T12_layout2"), "T12", quick42},
		// What `wormbench -run T1 -quick -seed 42 -checkpoint DIR` and
		// the same for T7 wrote before the batch engine, under the keys
		// that build wrote: T1's rows are the old T1Row, T7's jobs bare
		// float64s, and T7's one 18-job fan-out has the same length as
		// this build's.
		{"parent T1 layout", plantParent("T1"), "T1", quick42},
		{"parent T7 layout", plantParent("T7"), "T7", quick42},
		// What the build before T10 joined the engine wrote for the same
		// run: T10Row blobs, its one 4-job fan-out of the same length as
		// this build's.
		{"parent T10 layout", plantParent("T10"), "T10", quick42},
		// What `wormbench -run T2 -quick -seed 42 -checkpoint DIR` wrote
		// under layout 3, in DIR/T2: the same vals as this build's, for
		// the same jobs, under keys that name the fan-out's stage.
		{"parent T2 layout", plantParent("T2"), "T2", quick42},
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

// plantParent fills a store with testdata/ckpt_parent_<id>, each file
// under its own name as the key.
func plantParent(id string) func(t *testing.T, s *memStore) {
	return func(t *testing.T, s *memStore) {
		dir := filepath.Join("testdata", "ckpt_parent_"+id)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			s.blobs[e.Name()] = blob
		}
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
