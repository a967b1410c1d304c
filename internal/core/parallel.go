package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"wormhole/internal/rng"
)

// This file is the experiment harness's parallel job-runner. Every sweep
// in the package is expressed as a list of independent jobs — one per
// trial, per sweep point, or per workload — executed through mapJobs.
//
// Determinism contract: a job may depend only on its index (and on state
// fully constructed before the fan-out), never on execution order, and it
// writes only to its own result slot. Randomized jobs draw from per-job
// sources derived by index before any job runs (see jobSources) or from
// seeds computed arithmetically from the index. Under that contract the
// collected result slice — and hence every rendered table — is
// byte-identical for any worker count, which TestParallelDeterminism
// verifies across the whole experiment registry.
//
// Jobs start in index order, so a fan-out chooses its schedule by how it
// numbers its jobs, never by what it computes: every experiment numbers
// its one fan-out from the last job back, costliest first (batch.go,
// measure), and stores each result in table order. The contract above
// is unchanged by that, and so is checkpointing, whose memo key
// (checkpoint.go) is scoped to the run, the fan-out's length and the
// job's index.

// workers resolves Config.Workers: 0 means GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachJob executes job(0..n-1), fanning across up to workers
// goroutines. Indices are handed out in ascending order through an
// atomic counter, so scheduling is work-stealing-ish and the worker
// count never affects which jobs run — only where.
//
// The experiments use panic as their failure convention, so a panicking
// job must stay recoverable by the caller exactly as in a sequential
// run: the first panic value is captured, the panicking worker stops,
// and the panic is re-raised on the calling goroutine after the pool
// drains (the original value is preserved; the worker's stack is lost).
func forEachJob(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
		panicked  atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				if !runJob(job, i, &panicOnce, &panicVal, &panicked) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// runJob runs one job, converting a panic into a recorded value; it
// reports whether the worker should keep going.
func runJob(job func(i int), i int, once *sync.Once, val *any, flag *atomic.Bool) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			once.Do(func() { *val = r })
			flag.Store(true)
			ok = false
		}
	}()
	job(i)
	return true
}

// errCanceled is how mapJobs unwinds an experiment whose context was
// cancelled: thrown here, caught in Run, seen by nobody else.
var errCanceled = errors.New("core: run canceled")

// mapJobs runs n independent jobs under cfg's worker budget and collects
// their results in index order. With Config.Checkpoint set, each job is
// replayed from the store when it holds a faithful result and otherwise
// computed and stored; once the context Run was given is cancelled, no
// further job starts (see checkpoint.go for both contracts).
func mapJobs[T any](cfg Config, n int, job func(i int) T) []T {
	out := make([]T, n)
	forEachJob(cfg.workers(), n, func(i int) {
		if cfg.ctx != nil && cfg.ctx.Err() != nil {
			panic(errCanceled)
		}
		if cfg.Checkpoint == nil {
			out[i] = job(i)
			return
		}
		key := cfg.key(n, i)
		var ok bool
		if out[i], ok = LoadMemo[T](cfg.Checkpoint, key); !ok {
			out[i] = job(i)
			StoreMemo(cfg.Checkpoint, key, out[i])
		}
	})
	return out
}

// jobSources derives n independent child sources from seed by repeated
// Split. The derivation happens up front, in index order, so the source
// a job receives depends only on (seed, index) — never on which worker
// runs it or when.
func jobSources(seed uint64, n int) []*rng.Source {
	parent := rng.New(seed)
	out := make([]*rng.Source, n)
	for i := range out {
		out[i] = parent.Split()
	}
	return out
}
