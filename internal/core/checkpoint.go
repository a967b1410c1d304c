package core

// Optional experiment checkpointing: when Config.Checkpoint is set,
// every job the harness fans out is memoized in a BlobStore. A re-run
// of the same experiment — same ID, same Config — replays completed
// jobs from the store and computes only the rest, so a long sweep (the
// offline T15/scale studies, a daemon-hosted run) survives a process
// kill at the cost of re-running at most the jobs that were in flight.
//
// A key names the run and the job: Run scopes it by the experiment ID
// and every Config field a table depends on (Seed, Quick, Trials,
// Scale), then mapJobs adds the fan-out's stage, its length and the
// job's index. One store can therefore hold several runs — a
// -checkpoint directory reused with another -seed, or a -quick one
// reused at full scale — and a job replays only into the run that
// computed it; a key from another run, or from a build that laid its
// fan-outs out differently, is simply never looked up. Workers and
// Telemetry stay out of the key: tables do not depend on them.
//
// Correctness over reuse: a memoized job result must be EXACTLY the
// value the job would compute, or tables silently corrupt. Job results
// are arbitrary Go values (some with unexported fields JSON cannot
// carry), so the save side proves each blob faithful before storing it:
// marshal, unmarshal into a fresh value, and deep-compare against the
// live result. A type that does not round-trip is simply never stored —
// those jobs re-run every time, which is slower but always right. The
// load side mirrors the proof: a stored blob is replayed only if it
// re-encodes to itself under the job's current result type; a stale
// one is recomputed and overwritten.
//
// The stage counter assigns each mapJobs/flatJobs call within one
// experiment run a sequence number. Experiments issue their fan-outs in
// deterministic program order (concurrency lives inside a fan-out,
// never across fan-outs), so (stage, length, index) names the same
// logical job in every run of the same experiment. Run gives each run
// a fresh counter, so the caller's Checkpoint may be reused.
//
// Cancellation is the cooperative half of graceful shutdown: Run takes
// a context, the harness checks it before starting each job, and once
// it is cancelled Run returns context.Cause(ctx). In-flight jobs finish,
// completed jobs are already in the store, and the caller — the
// daemon's SIGTERM path — re-runs after restart to resume.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"

	"wormhole/internal/snap"
)

// BlobStore persists checkpoint blobs. Save must be atomic (a partial
// blob must never be observable under its key) and both methods must be
// safe for concurrent use — jobs save from harness workers.
type BlobStore interface {
	Load(key string) ([]byte, bool)
	Save(key string, blob []byte)
}

// Checkpoint memoizes harness jobs in a BlobStore. Set it as
// Config.Checkpoint; Run scopes it to the run.
type Checkpoint struct {
	Store BlobStore

	scope string // key prefix naming the run; set by scoped
	mu    sync.Mutex
	stage int
}

// scoped returns a fresh Checkpoint over c's store whose keys name run
// id under cfg: the experiment and every Config field its tables
// depend on.
func (c *Checkpoint) scoped(id string, cfg Config) *Checkpoint {
	return &Checkpoint{Store: c.Store, scope: fmt.Sprintf("%s-seed%d-quick%t-trials%d-scale%d-",
		id, cfg.Seed, cfg.Quick, cfg.Trials, cfg.Scale)}
}

func (c *Checkpoint) nextStage() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stage
	c.stage++
	return s
}

// key names job i of the n-job fan-out at stage.
func (c *Checkpoint) key(stage, n, i int) string {
	return fmt.Sprintf("%ss%03d-n%06d-j%06d.json", c.scope, stage, n, i)
}

// memoJob wraps one job with load-else-compute-and-prove semantics.
func memoJob[T any](cp *Checkpoint, stage, n, i int, job func(i int) T) T {
	key := cp.key(stage, n, i)
	if cached, ok := LoadMemo[T](cp.Store, key); ok {
		return cached
	}
	out := job(i)
	StoreMemo(cp.Store, key, out)
	return out
}

// LoadMemo is the load half of the memo: it replays the value stored
// under key only if the blob is a faithful encoding of T as it is now.
// Unmarshal tolerates unknown and missing fields, so a blob written
// before the result type changed (a re-invocation after an upgrade, a
// daemon restarted over a live state dir) decodes "successfully" into
// zeroed fields; re-encoding exposes that.
func LoadMemo[T any](s BlobStore, key string) (cached T, ok bool) {
	blob, found := s.Load(key)
	if !found || json.Unmarshal(blob, &cached) != nil {
		return cached, false
	}
	again, err := json.Marshal(cached)
	return cached, err == nil && bytes.Equal(again, blob)
}

// StoreMemo is the store half: it saves v under key only if the blob is
// proven faithful — unmarshalled into a fresh value, it must deep-equal
// v. A value that does not round-trip is never stored.
func StoreMemo[T any](s BlobStore, key string, v T) {
	blob, err := json.Marshal(v)
	if err != nil {
		return
	}
	var check T
	if json.Unmarshal(blob, &check) == nil && reflect.DeepEqual(v, check) {
		s.Save(key, blob)
	}
}

// DirStore is a BlobStore over one directory of FS: each key is a file,
// written atomically (snap.WriteFile), and durably where FS syncs. Load
// tolerates a missing directory; Save creates it on first use.
type DirStore struct {
	FS  snap.FS
	Dir string
}

// Load implements BlobStore.
func (d DirStore) Load(key string) ([]byte, bool) {
	blob, err := d.FS.ReadFile(filepath.Join(d.Dir, key))
	if err != nil {
		return nil, false
	}
	return blob, true
}

// Save implements BlobStore. Failures are deliberately silent: a
// checkpoint store that cannot write degrades to re-running jobs, which
// is always correct.
func (d DirStore) Save(key string, blob []byte) {
	if d.FS.MkdirAll(d.Dir) == nil {
		snap.WriteFile(d.FS, filepath.Join(d.Dir, key), blob) //nolint:errcheck // see above
	}
}
