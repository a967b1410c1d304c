package main

// The job manager: a persistent, resumable queue of simulation jobs
// fanned over a bounded worker pool. Every piece of job state lives
// under one state directory so a daemon restart — graceful or kill -9 —
// reconstructs the queue and resumes interrupted work from checkpoints:
//
//	STATE/jobs/<id>/job.json      job spec + status
//	STATE/jobs/<id>/point-K.snap  live Runner checkpoint for sweep point K
//	STATE/jobs/<id>/point-K.json  completed sweep point (memoized)
//	STATE/jobs/<id>/ckpt/         core.Checkpoint store for experiment jobs
//	STATE/jobs/<id>/result.csv    final rendered output
//
// Sweep jobs run one open-loop traffic.Runner per offered rate and
// checkpoint it periodically via Runner.Snapshot (and once more on
// graceful shutdown); experiment jobs run the core registry under
// core.Checkpoint job memoization. Either way a resumed job produces
// output byte-identical to an uninterrupted run — the e2e test
// kill -9s the daemon mid-sweep and diffs.
//
// The manager re-describes nothing the engine owns: a sweep spec embeds
// traffic.Config, a finished point goes through core's memo halves, and
// a pause — cancel or shutdown — is one cancel-cause context per job.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wormhole/internal/core"
	"wormhole/internal/snap"
	"wormhole/internal/stats"
	"wormhole/internal/telemetry"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

type jobState string

// yieldSteps is how often, in flit steps, a running sweep point hands its
// P to whatever else is runnable — a status poll, most often. Every 8
// steps keeps a GOMAXPROCS(1) poll under 1 ms past due even behind T12's
// slow saturated bisection probes, where every 64 left it ≈ 8 ms and no
// yield ≈ 19 ms (TestStatusPollsWhileJobsRun). Experiment jobs yield the
// same way inside core (Config.onStep).
const yieldSteps = 8

const (
	stateQueued   jobState = "queued"
	stateRunning  jobState = "running"
	stateDone     jobState = "done"
	stateFailed   jobState = "failed"
	stateCanceled jobState = "canceled"
)

// Pause causes: what Cancel and Shutdown cancel a job's context with.
// They are daemon control flow, never job failures.
var (
	errShutdown = errors.New("wormholed: shutting down")
	errCanceled = errors.New("wormholed: job canceled")
	// errQueueFull rejects submissions over the -max-queued admission
	// cap; the API layer renders it as 429 with Retry-After.
	errQueueFull = errors.New("wormholed: job queue is full")
	// errCorruptCheckpoint is what snap.Open wraps when a checkpoint file
	// fails its integrity frame.
	errCorruptCheckpoint = errors.New("wormholed: corrupt checkpoint")
)

// SweepSpec declares an open-loop rate sweep: one traffic run per entry
// of Rates on a fixed network. Everything about the run itself is the
// embedded traffic.Config, whose struct tags are the wire schema, so a
// sweep point is traffic.Run of that Config by construction.
type SweepSpec struct {
	Topology string `json:"topology"`       // butterfly | mesh | torus
	Size     int    `json:"size,omitempty"` // butterfly input count
	Dims     []int  `json:"dims,omitempty"` // mesh / torus extents

	traffic.Config
	Rates []float64 `json:"rates"` // Config.Rate, one point each

	// Config.Retry, flat on the wire: the vcsim.RetryPolicy for messages
	// whose injection edge is dead.
	RetryMaxAttempts int `json:"retry_max_attempts,omitempty"`
	RetryBackoff     int `json:"retry_backoff,omitempty"`
	RetryBackoffCap  int `json:"retry_backoff_cap,omitempty"`
}

// endpoints checks the spec's topology and returns its endpoint count.
// Sizes come from outside, so this is what stands between a submission
// and an allocation in proportion to it: the count is bounded by
// traffic.MaxEndpoints, by arithmetic alone.
func (s *SweepSpec) endpoints() (int, error) {
	switch s.Topology {
	case "butterfly":
		if n := s.Size; n < 2 || n&(n-1) != 0 || n > traffic.MaxEndpoints {
			return 0, fmt.Errorf("butterfly size %d is not a power of two in [2, %d]", n, traffic.MaxEndpoints)
		}
		return s.Size, nil
	case "mesh", "torus":
		if len(s.Dims) == 0 {
			return 0, fmt.Errorf("%s needs dims", s.Topology)
		}
		nodes := 1
		for _, d := range s.Dims {
			if d < 2 || d > traffic.MaxEndpoints/nodes {
				return 0, fmt.Errorf("%s dims %v: each must be ≥ 2 and their product ≤ %d", s.Topology, s.Dims, traffic.MaxEndpoints)
			}
			nodes *= d
		}
		return nodes, nil
	default:
		return 0, fmt.Errorf("unknown topology %q (want butterfly, mesh, or torus)", s.Topology)
	}
}

// network builds the spec's topology, once endpoints has passed it.
func (s *SweepSpec) network() (*traffic.Network, error) {
	if _, err := s.endpoints(); err != nil {
		return nil, err
	}
	switch s.Topology {
	case "butterfly":
		return traffic.NewButterflyNet(s.Size), nil
	case "mesh":
		return traffic.NewMeshNet(s.Dims...), nil
	default:
		return traffic.NewTorusNet(s.Dims...), nil
	}
}

// config is the traffic.Config of one sweep point: the spec's own, plus
// the three things the wire does not carry inside it. net is shared
// across points (it is read-only); rate varies per point.
func (s *SweepSpec) config(net *traffic.Network, rate float64) traffic.Config {
	cfg := s.Config
	cfg.Net, cfg.Rate = net, rate
	cfg.Retry = vcsim.RetryPolicy{MaxAttempts: s.RetryMaxAttempts, Backoff: s.RetryBackoff, BackoffCap: s.RetryBackoffCap}
	return cfg
}

// validate puts every point of the sweep through the checks the engine's
// own constructors make (traffic.Config.Validate), so a bad submission is
// rejected at POST time with the engine's typed error (vcsim.ErrBadConfig
// / ErrOverHorizon or the traffic validation) instead of failing later in
// a worker — and without building what it describes: the handler holds
// no simulator, and no network unless the spec carries a fault schedule,
// whose edge IDs only the built topology can bound. That is judged last,
// after everything arithmetic has passed.
func (s *SweepSpec) validate() error {
	if len(s.Rates) == 0 {
		return errors.New("sweep has no rates")
	}
	endpoints, err := s.endpoints()
	if err != nil {
		return err
	}
	cfg := s.config(nil, 0)
	cfg.Faults = nil
	for _, cfg.Rate = range s.Rates {
		if err := cfg.Validate(endpoints, 0); err != nil {
			return err
		}
	}
	if len(s.Faults) == 0 {
		return nil
	}
	net, err := s.network()
	if err != nil {
		return err
	}
	cfg.Faults = s.Faults
	return cfg.Validate(endpoints, net.G.NumEdges())
}

// ExperimentSpec names a core registry experiment to run.
type ExperimentSpec struct {
	ID     string `json:"id"`
	Seed   uint64 `json:"seed,omitempty"`
	Quick  bool   `json:"quick,omitempty"`
	Trials int    `json:"trials,omitempty"`
	Scale  int    `json:"scale,omitempty"`
}

// config is the core.Config the spec asks for, before the daemon
// attaches its checkpoint store.
func (e *ExperimentSpec) config() core.Config {
	return core.Config{Seed: e.Seed, Quick: e.Quick, Trials: e.Trials, Scale: e.Scale}
}

// JobSpec is the body of POST /api/v1/jobs.
type JobSpec struct {
	Type       string          `json:"type"` // sweep | experiment
	Sweep      *SweepSpec      `json:"sweep,omitempty"`
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
}

func (s *JobSpec) validate() error {
	switch s.Type {
	case "sweep":
		if s.Sweep == nil {
			return errors.New(`"sweep" spec required for type "sweep"`)
		}
		return s.Sweep.validate()
	case "experiment":
		if s.Experiment == nil {
			return errors.New(`"experiment" spec required for type "experiment"`)
		}
		return core.Validate(s.Experiment.ID, s.Experiment.config())
	default:
		return fmt.Errorf("unknown job type %q (want sweep or experiment)", s.Type)
	}
}

// JobStatus is the persisted and served view of one job.
type JobStatus struct {
	ID          string   `json:"id"`
	Type        string   `json:"type"`
	State       jobState `json:"state"`
	Error       string   `json:"error,omitempty"`
	PointsDone  int      `json:"points_done,omitempty"`
	PointsTotal int      `json:"points_total,omitempty"`
	CreatedUnix int64    `json:"created_unix"`
	// Checkpoints is absent until the job's first checkpoint attempt.
	Checkpoints *CheckpointStats `json:"checkpoints,omitempty"`
	Spec        JobSpec          `json:"spec"`
}

// CheckpointStats is what a sweep job's checkpointing has done so far,
// across restarts (it is persisted with the rest of the status). A
// failed checkpoint or a rejected restore costs the job nothing but
// resume granularity, so it is counted here instead of failing the job.
type CheckpointStats struct {
	Written   int     `json:"written"`
	Failed    int     `json:"failed"`
	LastBytes int     `json:"last_bytes"` // size on disk of the last one written
	TotalMs   float64 `json:"total_ms"`   // wall time spent encoding, sealing and writing
	LastError string  `json:"last_error,omitempty"`
	// Restores: a checkpoint found on disk either resumed its point or
	// was rejected (the integrity frame or the runner codec refused it)
	// and the point re-ran from scratch.
	Restored         int    `json:"restored"`
	RestoreRejected  int    `json:"restore_rejected"`
	LastRestoreError string `json:"last_restore_error,omitempty"`
}

// pointResult memoizes one completed sweep point.
type pointResult struct {
	Rate    float64                 `json:"rate"`
	Result  traffic.Result          `json:"result"`
	Windows []telemetry.WindowStats `json:"windows,omitempty"`
}

type job struct {
	mu     sync.Mutex
	status JobStatus
	pub    *telemetry.Publisher // per-window series feed for this job
	// ctx pauses the job at its next poll once cancelled: by Cancel with
	// errCanceled, or by Shutdown — through the manager's context, its
	// parent — with errShutdown.
	ctx    context.Context
	cancel context.CancelCauseFunc
}

// tally applies f to the job's checkpoint tally, which the next persist
// writes out. Served statuses share the pointer, so f edits a copy.
func (j *job) tally(f func(*CheckpointStats)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var cs CheckpointStats
	if j.status.Checkpoints != nil {
		cs = *j.status.Checkpoints
	}
	f(&cs)
	j.status.Checkpoints = &cs
}

func (j *job) snapshotStatus() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// manager owns the state directory and the worker pool.
type manager struct {
	fsys      snap.FS // every file operation but the caches' writes
	cache     snap.FS // fsys without the syncs: see unsynced
	dir       string  // STATE/jobs
	ckptEvery int     // checkpoint a live sweep runner every N steps
	queue     chan *job
	// ctx is every job context's parent; Shutdown cancels it.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int

	wg    sync.WaitGroup
	start time.Time
}

func newManager(stateDir string, workers, ckptEvery, maxQueued int, fsys snap.FS) (*manager, error) {
	if workers < 1 {
		workers = 1
	}
	if maxQueued < 1 {
		maxQueued = 1024
	}
	m := &manager{
		fsys:      fsys,
		cache:     unsynced{fsys},
		dir:       filepath.Join(stateDir, "jobs"),
		ckptEvery: ckptEvery,
		jobs:      map[string]*job{},
		start:     time.Now(),
	}
	m.ctx, m.cancel = context.WithCancelCause(context.Background())
	// STATE/jobs must outlive a machine death before any job in it can.
	if err := fsys.MkdirAll(m.dir); err != nil {
		return nil, err
	}
	if err := fsys.SyncDir(stateDir); err != nil {
		return nil, err
	}
	requeue, err := m.recover()
	if err != nil {
		return nil, err
	}
	// Recovered jobs must all fit regardless of the admission cap: the
	// cap bounds new submissions, not what a restart owes its tenants.
	if maxQueued < len(requeue) {
		maxQueued = len(requeue)
	}
	m.queue = make(chan *job, maxQueued)
	for _, j := range requeue {
		m.queue <- j
	}
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover scans the state directory and reloads every persisted job.
// Jobs that were queued or running when the previous process died are
// returned for re-queueing; their checkpoints make the re-run a resume.
// A process killed inside snap.WriteFile left a temp file (as large as
// the checkpoint it was writing) that nothing would ever rename or read:
// those are swept first, while no worker is writing.
func (m *manager) recover() ([]*job, error) {
	entries, err := m.fsys.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var requeue []*job
	for _, name := range names {
		for _, dir := range []string{m.jobDir(name), filepath.Join(m.jobDir(name), "ckpt")} {
			if err := snap.RemoveTemps(m.fsys, dir); err != nil {
				fmt.Fprintln(os.Stderr, "wormholed: recover:", err)
			}
		}
		blob, err := m.fsys.ReadFile(filepath.Join(m.dir, name, "job.json"))
		if err != nil {
			continue // half-created dir: ignore
		}
		var st JobStatus
		if json.Unmarshal(blob, &st) != nil || st.ID != name {
			continue
		}
		j := m.newJob(st)
		m.jobs[st.ID] = j
		m.order = append(m.order, st.ID)
		if n, err := strconv.Atoi(strings.TrimPrefix(st.ID, "j")); err == nil && n >= m.nextID {
			m.nextID = n + 1
		}
		if st.State == stateQueued || st.State == stateRunning {
			m.setState(j, stateQueued, "")
			requeue = append(requeue, j)
		} else {
			j.cancel(nil) // terminal: nothing left to pause
		}
	}
	return requeue, nil
}

// Submit validates a spec, persists the new job, and queues it. A full
// queue rejects the submission up front (admission control, not
// backpressure: nothing is persisted for a rejected job).
func (m *manager) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.validate(); err != nil {
		return JobStatus{}, err
	}
	if len(m.queue) >= cap(m.queue) {
		return JobStatus{}, errQueueFull
	}
	m.mu.Lock()
	id := fmt.Sprintf("j%06d", m.nextID)
	m.nextID++
	j := m.newJob(JobStatus{
		ID:          id,
		Type:        spec.Type,
		State:       stateQueued,
		CreatedUnix: time.Now().Unix(),
		Spec:        spec,
	})
	if spec.Type == "sweep" {
		j.status.PointsTotal = len(spec.Sweep.Rates)
	}
	// Directory and first job.json before the job becomes visible: a
	// submission that cannot be persisted must not leave List and /metrics
	// showing a queued job no worker will ever run. Syncing STATE/jobs
	// makes the directory outlive a machine death; persist does the same
	// for job.json inside it, so a 202 is never taken back.
	err := m.fsys.MkdirAll(m.jobDir(id))
	if err == nil {
		err = m.fsys.SyncDir(m.dir)
	}
	if err == nil {
		err = m.persist(j.snapshotStatus())
	}
	if err == nil {
		m.jobs[id] = j
		m.order = append(m.order, id)
	}
	m.mu.Unlock()
	if err != nil {
		return JobStatus{}, err
	}
	select {
	case m.queue <- j:
	case <-m.ctx.Done():
		return JobStatus{}, errShutdown
	}
	return j.snapshotStatus(), nil
}

func (m *manager) newJob(st JobStatus) *job {
	j := &job{status: st, pub: &telemetry.Publisher{}}
	j.ctx, j.cancel = context.WithCancelCause(m.ctx)
	return j
}

func (m *manager) Get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns job statuses in submission order.
func (m *manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].snapshotStatus())
	}
	return out
}

// Cancel cancels a job's context; a queued job is canceled at pickup, a
// running one at its next poll (a flit step, or the start of an
// experiment's next harness job).
func (m *manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if ok {
		j.cancel(errCanceled)
	}
	return ok
}

// Shutdown begins a graceful stop: running jobs pause at their next
// step poll, checkpoint, and go back to queued; workers then exit.
// Blocks until the pool is drained.
func (m *manager) Shutdown() {
	m.cancel(errShutdown)
	m.wg.Wait()
}

func (m *manager) jobDir(id string) string { return filepath.Join(m.dir, id) }

// setState moves j to state s. The new state is on disk before any status
// reports it, so a tenant is never shown a state a crash would take back.
func (m *manager) setState(j *job, s jobState, errMsg string) {
	st := j.snapshotStatus()
	st.State, st.Error = s, errMsg
	m.persist(st)
	j.mu.Lock()
	j.status.State, j.status.Error = s, errMsg
	j.mu.Unlock()
}

// persist atomically and durably rewrites st's job.json. A failure is
// logged here; only Submit, which must not admit an unpersisted job, also
// acts on the returned error.
func (m *manager) persist(st JobStatus) error {
	blob, err := json.MarshalIndent(st, "", "  ")
	if err == nil {
		err = snap.WriteFile(m.fsys, filepath.Join(m.jobDir(st.ID), "job.json"), blob)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormholed: persist:", err)
	}
	return err
}

// worker runs queued jobs one at a time. It owns the one buffer every
// checkpoint it takes is encoded and sealed in: retained across jobs, so
// memory held for checkpointing is bounded by the worker count.
func (m *manager) worker() {
	defer m.wg.Done()
	var ckpt snap.Frame
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.runJob(j, &ckpt)
		}
	}
}

func (m *manager) runJob(j *job, ckpt *snap.Frame) {
	err := j.ctx.Err()
	if err == nil {
		m.setState(j, stateRunning, "")
		switch j.status.Spec.Type {
		case "sweep":
			err = m.runSweep(j, ckpt)
		case "experiment":
			err = m.runExperiment(j)
		default:
			err = fmt.Errorf("unknown job type %q", j.status.Spec.Type)
		}
	}
	if err != nil && j.ctx.Err() != nil {
		// Paused, at pickup or mid-run. Which pause — a tenant's cancel or
		// the daemon's shutdown — is the context's cause, read only here.
		err = context.Cause(j.ctx)
	}
	j.cancel(nil) // releases the context of a job that ran to its end
	switch {
	case err == nil:
		m.setState(j, stateDone, "")
	case errors.Is(err, errShutdown):
		// Checkpointed; a restart re-queues and resumes.
		m.setState(j, stateQueued, "")
	case errors.Is(err, errCanceled):
		m.setState(j, stateCanceled, "")
	default:
		m.setState(j, stateFailed, err.Error())
	}
}

// --- sweep jobs --------------------------------------------------------------

func (m *manager) runSweep(j *job, ckpt *snap.Frame) error {
	st := j.snapshotStatus()
	spec := st.Spec.Sweep
	net, err := spec.network()
	if err != nil {
		return err
	}
	// A finished point is memoized as point-K.json under core's memo
	// contract: replayed only if it is a faithful pointResult as the type
	// is now, stored only if proven to round-trip.
	memo := core.DirStore{FS: m.cache, Dir: m.jobDir(st.ID)}
	results := make([]pointResult, 0, len(spec.Rates))
	for k, rate := range spec.Rates {
		key := fmt.Sprintf("point-%03d.json", k)
		pr, ok := core.LoadMemo[pointResult](memo, key)
		if !ok {
			pr, err = m.runPoint(j, net, spec, k, rate, ckpt)
			if err != nil {
				return err
			}
			core.StoreMemo(memo, key, pr)
		}
		// On a replayed memo too: a crash between the memo and this removal
		// leaves a finished point's checkpoint that nothing else deletes.
		m.fsys.Remove(m.pointSnapPath(st.ID, k))
		results = append(results, pr)
		j.mu.Lock()
		j.status.PointsDone = k + 1
		j.mu.Unlock()
		m.persist(j.snapshotStatus())
	}
	return snap.WriteFile(m.fsys, filepath.Join(m.jobDir(st.ID), "result.csv"), []byte(renderSweepCSV(results)))
}

// runPoint runs (or resumes) one sweep point. The runner checkpoints
// itself every ckptEvery steps; once the job's context is cancelled its
// error surfaces through Run/Resume with the runner state intact, and
// one final checkpoint is taken before handing the point back.
func (m *manager) runPoint(j *job, net *traffic.Network, spec *SweepSpec, k int, rate float64, ckpt *snap.Frame) (pointResult, error) {
	cfg := spec.config(net, rate)
	if cfg.Window > 0 {
		cfg.Metrics = telemetry.NewMetrics()
		cfg.Publish = j.pub
	}
	snapPath := m.pointSnapPath(j.snapshotStatus().ID, k)

	var r *traffic.Runner
	done := j.ctx.Done()
	cfg.OnStep = func(step int) error {
		select {
		case <-done:
			return j.ctx.Err()
		default:
		}
		if step%yieldSteps == 0 {
			// With every P stepping a job, a status GET has none to run on
			// until Go preempts a goroutine 10 ms into its slice; yield sooner.
			runtime.Gosched()
		}
		if m.ckptEvery > 0 && step > 0 && step%m.ckptEvery == 0 {
			m.checkpoint(j, r, snapPath, ckpt)
		}
		return nil
	}

	if raw, err := m.fsys.ReadFile(snapPath); err == nil {
		// The integrity frame catches torn writes, truncations, and bit
		// flips before the runner codec sees the bytes; either failure
		// falls back to a fresh run rather than resuming corrupt state,
		// and says why on the job's record.
		blob, err := snap.Open(raw, errCorruptCheckpoint)
		if err == nil {
			r, err = traffic.RestoreRunner(cfg, bytes.NewReader(blob))
		}
		j.tally(func(cs *CheckpointStats) {
			if err != nil {
				cs.RestoreRejected++
				cs.LastRestoreError = err.Error()
			} else {
				cs.Restored++
			}
		})
		if err != nil {
			m.fsys.Remove(snapPath)
			r = nil
		}
	}

	var res traffic.Result
	var err error
	if r != nil {
		res, err = r.Resume()
	} else if r, err = traffic.NewRunner(cfg); err == nil {
		res, err = r.Run()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Paused with state intact: take the final checkpoint now.
			m.checkpoint(j, r, snapPath, ckpt)
		}
		return pointResult{}, err
	}
	return pointResult{
		Rate:    rate,
		Result:  res,
		Windows: append([]telemetry.WindowStats(nil), r.Windows()...),
	}, nil
}

// checkpoint takes one checkpoint of j's live runner and records the
// outcome in the job's status, which the next persist writes out. A
// failure is the job's to report, not the daemon's log's: the run carries
// on and resumes from an older checkpoint, or from scratch.
func (m *manager) checkpoint(j *job, r *traffic.Runner, path string, buf *snap.Frame) {
	start := time.Now()
	n, err := m.checkpointRunner(r, path, buf)
	j.tally(func(cs *CheckpointStats) {
		cs.TotalMs += float64(time.Since(start).Microseconds()) / 1e3
		if err != nil {
			cs.Failed++
			cs.LastError = err.Error()
		} else {
			cs.Written++
			cs.LastBytes = n
		}
	})
}

// checkpointRunner snapshots a live runner to path, atomically, inside
// the CRC integrity frame, and returns the file's size. The snapshot is
// encoded into buf behind the frame header's reserved room and sealed
// there, so the bytes written are the bytes encoded — no intermediate
// copy.
func (m *manager) checkpointRunner(r *traffic.Runner, path string, buf *snap.Frame) (int, error) {
	buf.Reset()
	if err := r.Snapshot(buf); err != nil {
		return 0, err
	}
	blob := buf.Seal()
	return len(blob), snap.WriteFile(m.cache, path, blob)
}

// unsynced is an FS whose syncs do nothing. The manager writes its caches
// through it: checkpoints and finished-point memos, which a machine death
// may lose or tear because the reader rejects either — a checkpoint on its
// CRC frame, a memo (a JSON object, so no proper prefix of it decodes)
// under core's memo contract — and recomputes. Syncing them too put the
// benchmark's daemon-sweep wall_s at +21% on a 2-vCPU ext4 VM: its jobs
// checkpoint every 2048 steps.
type unsynced struct{ snap.FS }

func (unsynced) SyncDir(string) error { return nil }

func (u unsynced) CreateTemp(dir, pattern string) (snap.File, error) {
	f, err := u.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{f}, nil
}

type unsyncedFile struct{ snap.File }

func (unsyncedFile) Sync() error { return nil }

func (m *manager) pointSnapPath(id string, k int) string {
	return filepath.Join(m.jobDir(id), fmt.Sprintf("point-%03d.snap", k))
}

// renderSweepCSV renders the sweep's final output. Only schedule-
// determined fields appear, so a resumed sweep renders byte-identically
// to an uninterrupted one.
func renderSweepCSV(points []pointResult) string {
	var b strings.Builder
	b.WriteString("rate,offered,accepted,mean_lat,p50,p95,p99,max_lat,steps,backlog,aborted,saturated,early_stop,truncated,deadlocked,fault_deadlocked\n")
	for _, p := range points {
		r := p.Result
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%s,%s,%d,%d,%d,%d,%t,%t,%t,%t,%t\n",
			g(p.Rate), g(r.Offered), g(r.Accepted), g(r.MeanLatency),
			g(r.P50), g(r.P95), g(r.P99), r.MaxLatency,
			r.Steps, r.Backlog, r.Aborted, r.Saturated, r.EarlyStop, r.Truncated,
			r.Deadlocked, r.FaultDeadlocked)
	}
	return b.String()
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// --- experiment jobs ---------------------------------------------------------

// runCore is core.Run behind a variable so a test can substitute a run
// function that panics and drive runExperiment's recover.
var runCore = core.Run

// runExperiment runs a core registry experiment under checkpoint
// memoization and renders its tables with the renderer `wormbench -csv`
// uses, so daemon output byte-diffs cleanly against the CLI. A cancelled
// context comes back as core.Run's error with the finished harness jobs
// stored; the re-run resumes from them.
func (m *manager) runExperiment(j *job) (err error) {
	st := j.snapshotStatus()
	spec := st.Spec.Experiment
	cfg := spec.config()
	cfg.Checkpoint = &core.Checkpoint{Store: core.DirStore{FS: m.fsys, Dir: filepath.Join(m.jobDir(st.ID), "ckpt")}}
	defer func() {
		// Experiments panic on states they take for bugs. That is this
		// job's failure, not the daemon's: a panic escaping this worker
		// goroutine kills the process, and startup recovery would
		// re-queue the job and kill every restart too.
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s panicked: %v", spec.ID, r)
		}
	}()
	tables, err := runCore(j.ctx, spec.ID, cfg)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := stats.WriteTablesCSV(&b, tables); err != nil {
		return err
	}
	return snap.WriteFile(m.fsys, filepath.Join(m.jobDir(st.ID), "result.csv"), b.Bytes())
}

// ResultPath returns the final output path for a done job.
func (m *manager) ResultPath(id string) string {
	return filepath.Join(m.jobDir(id), "result.csv")
}
