package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"wormhole/internal/stats"
	"wormhole/internal/telemetry"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// Quick shrinks sweeps to test-suite scale; full scale reproduces the
	// README.md numbers.
	Quick bool
	// Trials averages randomized measurements (0 = per-experiment
	// default).
	Trials int
	// Workers bounds the harness's job-runner fan-out (0 = GOMAXPROCS).
	// Tables are byte-identical for every worker count; see parallel.go.
	Workers int
	// Scale overrides the network size of the experiments that sweep it
	// (the T14/T15 butterfly input counts; 0 = the experiment's
	// default). CI runs the default; larger scales — the documented
	// offline 1024-input T14 and 4096-input T15 — are opt-in via
	// wormbench -scale.
	Scale int
	// Telemetry, when non-nil, collects hot-path counters from every
	// simulator the experiment runs. Each concurrent job gets its own
	// child registry (via metrics), folded deterministically at
	// Telemetry.Snapshot(). Tables stay byte-identical either way.
	Telemetry *telemetry.Aggregate
	// Checkpoint, when non-nil, memoizes completed harness jobs in its
	// BlobStore so a re-run of the same experiment with the same Seed,
	// Quick, Trials and Scale resumes instead of recomputing (see
	// checkpoint.go); a run under any other Config recomputes. Tables
	// stay byte-identical with or without it.
	Checkpoint *Checkpoint

	// ctx is the context Run was given; mapJobs stops starting jobs once
	// it is cancelled. Nil (an Experiment.Run called directly) never is.
	ctx context.Context
}

// trials is the experiment's trial count: Trials when set, otherwise its
// default for the scale it runs at.
func (c Config) trials(full, quick int) int {
	switch {
	case c.Trials > 0:
		return c.Trials
	case c.Quick:
		return quick
	}
	return full
}

// metrics returns a fresh child registry of the experiment's telemetry
// aggregate, or nil when telemetry is off. Metrics registries must not be
// shared across concurrent simulators, so each job calls this once.
func (c Config) metrics() *telemetry.Metrics {
	if c.Telemetry == nil {
		return nil
	}
	return c.Telemetry.NewMetrics()
}

// onStep is the OnStep hook of the experiment's open-loop runs. Under a
// context that can be cancelled — a service's, as in wormholed's
// experiment jobs — it hands the P to any other runnable goroutine every
// 8 flit steps, so the service's status polls do not wait out Go's 10 ms
// preemption slice while every P steps a job. A run nothing can cancel
// (the command line) has nothing to yield to and gets no hook.
func (c Config) onStep() func(int) error {
	if c.ctx == nil || c.ctx.Done() == nil {
		return nil
	}
	return yieldEvery8
}

func yieldEvery8(step int) error {
	if step%8 == 0 {
		runtime.Gosched()
	}
	return nil
}

// Experiment is a runnable reproduction unit keyed by the IDs catalogued
// in README.md.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) []*stats.Table
	// Validate, when non-nil, rejects a Config the experiment cannot run
	// (a bad -scale). Run may assume it returned nil.
	Validate func(Config) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("core: duplicate experiment %s", e.ID))
	}
	registry[e.ID] = e
}

// Experiments lists the registered experiments in ID order.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range ids() {
		out = append(out, registry[id])
	}
	return out
}

// Validate reports whether Run(id, cfg) can start: the experiment
// exists and accepts cfg. Callers holding outside input (a command
// line, a job submission) use it to reject the input up front.
func Validate(id string, cfg Config) error {
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("core: unknown experiment %q (have %v)", id, ids())
	}
	if e.Validate != nil {
		return e.Validate(cfg)
	}
	return nil
}

// Run validates cfg and executes the experiment with the given ID. Once
// ctx is cancelled no further harness job starts and Run returns
// context.Cause(ctx); with Config.Checkpoint set, the jobs that finished
// are stored and a re-run with the same Config resumes from them.
func Run(ctx context.Context, id string, cfg Config) (tables []*stats.Table, err error) {
	if err := Validate(id, cfg); err != nil {
		return nil, err
	}
	cfg.ctx = ctx
	if cfg.Checkpoint != nil {
		cfg.Checkpoint = cfg.Checkpoint.scoped(id, cfg)
	}
	defer func() {
		if r := recover(); r != nil {
			if r != errCanceled {
				panic(r) // a genuine failure: the caller's to see
			}
			tables, err = nil, context.Cause(ctx)
		}
	}()
	return registry[id].Run(cfg), nil
}

func ids() []string {
	var out []string
	for id := range registry { //wormvet:allow determinism -- keys sorted immediately below
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
