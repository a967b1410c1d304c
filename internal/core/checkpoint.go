package core

// Optional experiment checkpointing: when Config.Checkpoint is set,
// every job the harness fans out is memoized in that BlobStore. A
// re-run of the same experiment — same ID, same Config — replays
// completed jobs from the store and computes only the rest, so a long
// sweep (the offline T15/scale studies, a daemon-hosted run) survives a
// process kill at the cost of re-running at most the jobs that were in
// flight.
//
// A key names the layout, the run and the job: Run prefixes it with the
// job layout's version, the experiment ID and every Config field a
// table depends on (Seed, Quick, Trials, Scale), then mapJobs adds the
// fan-out's length and the job's index. An experiment issues exactly
// one fan-out, so (length, index) names the same logical job in every
// run of it. One store can therefore hold every experiment and several
// runs — a -checkpoint directory reused with another -seed, or a -quick
// one reused at full scale — and a job replays only into the run that
// computed it; a key from another run, or from a build that laid its
// fan-out out differently, is simply never looked up. Workers and
// Telemetry stay out of the key: tables do not depend on them.
//
// Correctness over reuse: a memoized job result must be EXACTLY the
// value the job would compute, or tables silently corrupt. Every
// experiment job returns vals (named numbers), and the memo's one other
// user is wormholed's pointResult. Neither is trusted to survive JSON
// unproven (a NaN does not marshal at all), so the save side proves
// each blob faithful before storing it: marshal, unmarshal into a fresh
// value, and deep-compare against the live result. A value that does
// not round-trip is simply never stored — its job re-runs every time,
// which is slower but always right. The load side mirrors the proof: a
// stored blob is replayed only if it re-encodes to itself under the
// job's current result type; a stale one is recomputed and overwritten.
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

	"wormhole/internal/snap"
)

// BlobStore persists checkpoint blobs. Save must be atomic (a partial
// blob must never be observable under its key) and both methods must be
// safe for concurrent use — jobs save from harness workers.
type BlobStore interface {
	Load(key string) ([]byte, bool)
	Save(key string, blob []byte)
}

// layout versions how experiments lay out their fan-outs. A build that
// reorders a fan-out's jobs or changes a job's result type bumps it, so
// a store an older build wrote — a reused -checkpoint directory, a
// daemon's job state across an upgrade — replays nothing into the new
// layout: its jobs are recomputed once. Keys without a layout are the
// layout before 1; 1 is the batch engine (batch.go), whose every job
// returns vals; 2 is T5 and T10 joining it; 3 is T12–T16 joining it,
// and every experiment's tables running as one fan-out; 4 drops the
// fan-out's stage from the key, which that one fan-out left always 0.
const layout = 4

// runPrefix is the key prefix of run id under cfg: the layout, the
// experiment and every Config field its tables depend on.
func runPrefix(id string, cfg Config) string {
	return fmt.Sprintf("%s-layout%d-seed%d-quick%t-trials%d-scale%d-",
		id, layout, cfg.Seed, cfg.Quick, cfg.Trials, cfg.Scale)
}

// key names job i of the run's n-job fan-out.
func (c Config) key(n, i int) string {
	return fmt.Sprintf("%sn%06d-j%06d.json", c.prefix, n, i)
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
