package traffic

// The Runner's contract is one checker, checkRunner, and one row table,
// forEachRunnerRow. Each of the checker's six properties is a method,
// and one top-level test runs it on every row, so every row runs every
// property. A new equivalence is a property there, a new workload a row.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"wormhole/internal/fault"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/vcsim"
)

var errPause = errors.New("pause requested")

// outcome is what the checker compares between runs: the Result and the
// window series beside it.
type outcome struct {
	res     Result
	windows []telemetry.WindowStats
}

// ownHooks gives cfg a Metrics and a Publisher of its own where it has
// them: counters accumulate across runs and ride in snapshots, so two
// Runners that shared one would not snapshot the same bytes.
func ownHooks(cfg Config) Config {
	if cfg.Metrics != nil {
		cfg.Metrics = telemetry.NewMetrics()
	}
	if cfg.Publish != nil {
		cfg.Publish = &telemetry.Publisher{}
	}
	return cfg
}

// runnerCheck is one row's uninterrupted run. Every property compares
// its runs to want, the window series included.
type runnerCheck struct {
	t      *testing.T
	cfg    Config
	runner *Runner // the Runner that ran want
	want   outcome
}

// checkRunner runs cfg uninterrupted and returns the checker whose
// properties hold every other run of cfg to that one:
//
//  1. determinism (TestRunDeterminism): Run(cfg) and two Runs of one
//     NaiveScan Runner.
//  2. replay (TestRunnerReplayByteIdentical): Runs 2 and 3 of the
//     uninterrupted run's Runner; then that Runner, retargeted to another
//     rate and seed, runs what a fresh Runner of that Config runs, and so
//     does one paused by its hook mid-injection or mid-drain, then
//     retargeted.
//  3. pause (TestRunnerPauseResume): a run paused through OnStep every k
//     steps and resumed.
//  4. lead (TestArrivalLeadInvariance): two runs that snapshot after
//     every step, one of them with seeded 0–200 µs sleeps so the arrival
//     producer's lead varies, snapshot the same bytes after every step.
//     Each takes at least one snapshot mid-chunk and one at a chunk's
//     end, and on a network wider than a chunk's budget a step spans
//     several chunks.
//  5. checkpoint (TestRunnerSnapshotCheckpointContinue): a run that
//     snapshots at the cuts without pausing, and a run paused at the cuts
//     that snapshots the same bytes there and, resumed, finishes the run.
//     The cuts are the first step, the first step mid-chunk from the
//     middle of warmup and from a quarter into measurement, the last
//     injection step and halfway through the drain, those the run
//     reaches.
//  6. restore (TestRunnerSnapshotRestore): a RestoreRunner built from
//     each cut's snapshot snapshots the same bytes again, and its Resume
//     finishes the run.
func checkRunner(t *testing.T, cfg Config) *runnerCheck {
	t.Helper()
	c := &runnerCheck{t: t, cfg: cfg}
	c.runner = c.build(cfg)
	c.want = c.finish(c.runner, nil)
	if c.want.res.Injected == 0 {
		t.Fatalf("no message injected: every property would hold vacuously: %+v", c.want.res)
	}
	return c
}

func (c *runnerCheck) build(cfg Config) *Runner {
	c.t.Helper()
	r, err := NewRunner(ownHooks(cfg))
	if err != nil {
		c.t.Fatal(err)
	}
	return r
}

func (c *runnerCheck) outcomeOf(r *Runner, res Result, err error) outcome {
	c.t.Helper()
	if err != nil {
		c.t.Fatal(err)
	}
	return outcome{res, append([]telemetry.WindowStats(nil), r.Windows()...)}
}

// finish runs r to its end, calling onPause at every pause.
func (c *runnerCheck) finish(r *Runner, onPause func()) outcome {
	c.t.Helper()
	res, err := r.Run()
	for ; errors.Is(err, errPause); res, err = r.Resume() {
		onPause()
	}
	return c.outcomeOf(r, res, err)
}

func (c *runnerCheck) same(what string, got outcome) {
	c.t.Helper()
	if !reflect.DeepEqual(got, c.want) {
		c.t.Fatalf("%s differs from the uninterrupted run\nwant %+v\n got %+v", what, c.want, got)
	}
}

func (c *runnerCheck) determinism() {
	if res, err := Run(ownHooks(c.cfg)); err != nil || res != c.want.res {
		c.t.Fatalf("Run(cfg) = %+v, %v; a Runner's Run gives %+v", res, err, c.want.res)
	}
	naive := c.cfg
	naive.NaiveScan = true
	oracle := c.build(naive)
	for i := 1; i <= 2; i++ {
		c.same(fmt.Sprintf("Run %d of a NaiveScan Runner", i), c.finish(oracle, nil))
	}
}

func (c *runnerCheck) replay() {
	for i := 2; i <= 3; i++ {
		c.same(fmt.Sprintf("Run %d of one Runner", i), c.finish(c.runner, nil))
	}
	other := c.cfg
	other.Rate, other.Seed = c.cfg.Rate/2, c.cfg.Seed+1
	if err := c.runner.retarget(other.Rate, other.Seed); err != nil {
		c.t.Fatal(err)
	}
	fresh := c.finish(c.build(other), nil)
	if got := c.finish(c.runner, nil); !reflect.DeepEqual(got, fresh) {
		c.t.Fatalf("the retargeted Runner ran %+v, a fresh one %+v", got, fresh)
	}
	// A Runner its hook paused once, mid-injection or mid-drain, and
	// retargeted runs the fresh Runner's run too: a speculative
	// saturation probe is abandoned that way and its Runner reused.
	horizon := c.cfg.Warmup + c.cfg.Measure
	for _, at := range []int{max(1, horizon/2), horizon + max(1, (c.want.res.Steps-horizon)/2)} {
		if at >= c.want.res.Steps {
			continue
		}
		paused, armed := c.cfg, true
		paused.OnStep = func(step int) error {
			if armed && step == at {
				armed = false
				return errPause
			}
			return nil
		}
		r := c.build(paused)
		if _, err := r.Run(); !errors.Is(err, errPause) {
			c.t.Fatalf("no pause at step %d: %v", at, err)
		}
		if err := r.retarget(other.Rate, other.Seed); err != nil {
			c.t.Fatal(err)
		}
		if got := c.finish(r, nil); !reflect.DeepEqual(got, fresh) {
			c.t.Fatalf("the Runner paused at step %d and retargeted ran %+v, a fresh one %+v", at, got, fresh)
		}
	}
}

func (c *runnerCheck) pause() {
	k, pauses := 1+c.want.res.Steps/7, 0
	paused := c.cfg
	paused.OnStep = func(step int) error {
		if step%k == 0 {
			return errPause
		}
		return nil
	}
	c.same(fmt.Sprintf("the run paused every %d steps", k), c.finish(c.build(paused), func() { pauses++ }))
	if pauses == 0 {
		c.t.Fatalf("no pause in %d steps", c.want.res.Steps)
	}
}

// snapshotEveryStep runs cfg snapshotting after every step, and sleeps
// on a third of the steps when sleeps is non-nil. It returns the
// snapshots' digests; the run must equal the uninterrupted one and take
// the snapshots mid-chunk, at a chunk's end and across chunks that the
// lead property promises.
func (c *runnerCheck) snapshotEveryStep(sleeps *rng.Source) (digests [][sha256.Size]byte) {
	c.t.Helper()
	var r *Runner
	mid, ends, split := false, 0, false
	h := sha256.New()
	cfg := c.cfg
	cfg.OnStep = func(int) error {
		h.Reset()
		if err := r.Snapshot(h); err != nil {
			return err
		}
		digests = append(digests, [sha256.Size]byte(h.Sum(nil)))
		if p := &r.prod; p.running && p.cur != nil {
			mid = true
			for _, sg := range p.cur.segs {
				split = split || int(sg.to) < c.cfg.Net.Endpoints
			}
		} else if p.running {
			ends++
		}
		if sleeps != nil && sleeps.Intn(3) == 0 {
			time.Sleep(time.Duration(sleeps.Intn(201)) * time.Microsecond)
		}
		return nil
	}
	r = c.build(cfg)
	c.same(fmt.Sprintf("the run snapshotted after every step (sleeps: %v)", sleeps != nil), c.finish(r, nil))
	if wide := c.cfg.Net.Endpoints > chunkSlots; !mid || ends == 0 || wide && !split {
		c.t.Fatalf("a snapshot mid-chunk: %v, %d at a chunk's end, a step split across chunks: %v", mid, ends, split)
	}
	return digests
}

func (c *runnerCheck) lead() {
	calm, slept := c.snapshotEveryStep(nil), c.snapshotEveryStep(rng.New(c.cfg.Seed))
	if len(calm) != len(slept) {
		c.t.Fatalf("%d steps with sleeps, %d without", len(slept), len(calm))
	}
	for i := range calm {
		if calm[i] != slept[i] {
			c.t.Fatalf("the snapshot after step %d depends on the producer's lead", i+1)
		}
	}
}

// cut runs cfg and snapshots it at the cuts the checkpoint property
// names, from OnStep or, when pause is set, after pausing there. It calls
// onCut with each cut's step and snapshot, and returns the run's outcome.
func (c *runnerCheck) cut(pause bool, onCut func(step int, blob []byte)) outcome {
	c.t.Helper()
	cfg := c.cfg
	horizon := cfg.Warmup + cfg.Measure
	fixed := []int{1, horizon, horizon + max(1, (c.want.res.Steps-horizon)/2)}
	midChunk := [][2]int{{max(2, cfg.Warmup/2), cfg.Warmup}, {cfg.Warmup + max(1, cfg.Measure/4), horizon}}
	found := make([]bool, len(midChunk))
	var r *Runner
	var cuts []int
	seen := 0
	snap := func() {
		var blob bytes.Buffer
		if err := r.Snapshot(&blob); err != nil {
			c.t.Fatal(err)
		}
		onCut(cuts[len(cuts)-1], blob.Bytes())
	}
	cfg.OnStep = func(step int) error {
		seen = step
		at := slices.Contains(fixed, step)
		for i, span := range midChunk {
			if !found[i] && span[0] <= step && step < span[1] && r.prod.running && r.prod.cur != nil {
				found[i], at = true, true
			}
		}
		if !at {
			return nil
		}
		cuts = append(cuts, step)
		if pause {
			return errPause
		}
		snap()
		return nil
	}
	r = c.build(cfg)
	out := c.finish(r, snap)
	for i, span := range midChunk {
		if !found[i] && span[1] <= seen {
			c.t.Fatalf("no step in [%d, %d) ends mid-chunk", span[0], span[1])
		}
	}
	return out
}

func (c *runnerCheck) checkpoint() {
	kept := map[int][sha256.Size]byte{}
	c.same("the run snapshotted at the cuts", c.cut(false, func(step int, blob []byte) {
		kept[step] = sha256.Sum256(blob)
	}))
	pauses := 0
	c.same("the run paused at the cuts and resumed", c.cut(true, func(step int, blob []byte) {
		pauses++
		if d, ok := kept[step]; !ok || d != sha256.Sum256(blob) {
			c.t.Fatalf("cut at step %d: the paused run snapshots other bytes than the run that did not pause", step)
		}
	}))
	if pauses != len(kept) {
		c.t.Fatalf("%d cuts paused, %d snapshotted without pausing", pauses, len(kept))
	}
}

func (c *runnerCheck) restore() {
	c.cut(true, func(step int, blob []byte) {
		restored, err := RestoreRunner(ownHooks(c.cfg), bytes.NewReader(blob))
		if err != nil {
			c.t.Fatalf("cut at step %d: %v", step, err)
		}
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil || !bytes.Equal(again.Bytes(), blob) {
			c.t.Fatalf("cut at step %d: the restored Runner snapshots other bytes (%v)", step, err)
		}
		res, err := restored.Resume()
		c.same(fmt.Sprintf("cut at step %d: the restored Runner's Resume", step), c.outcomeOf(restored, res, err))
	})
}

func TestRunDeterminism(t *testing.T)            { forEachRunnerRow(t, (*runnerCheck).determinism) }
func TestRunnerReplayByteIdentical(t *testing.T) { forEachRunnerRow(t, (*runnerCheck).replay) }
func TestRunnerPauseResume(t *testing.T)         { forEachRunnerRow(t, (*runnerCheck).pause) }
func TestArrivalLeadInvariance(t *testing.T)     { forEachRunnerRow(t, (*runnerCheck).lead) }
func TestRunnerSnapshotRestore(t *testing.T)     { forEachRunnerRow(t, (*runnerCheck).restore) }
func TestRunnerSnapshotCheckpointContinue(t *testing.T) {
	forEachRunnerRow(t, (*runnerCheck).checkpoint)
}

// forEachRunnerRow is checkRunner's table: it runs property on every row
// under Bernoulli, Poisson and OnOff, less a rate the process cannot
// offer. CHANGES.md maps the hand-written differentials it replaced onto
// their (property, row) pairs.
func forEachRunnerRow(t *testing.T, property func(*runnerCheck)) {
	base := baseCfg()
	base.Arbitration, base.Rate = vcsim.ArbByID, 0.15
	base.Warmup, base.Measure, base.Drain, base.Window = 6, 18, 400, 8
	// Outages with retry: of whole edges on B = 1 lanes loaded to 0.25,
	// where headers queue at their sources when a first edge dies, and of
	// single lanes on d = 2 shared ones.
	faulted := func(lanes int) func(*Config) {
		return func(c *Config) {
			c.Faults = fault.Generate(fault.GenConfig{
				Seed: 23, NumEdges: c.Net.G.NumEdges(), Horizon: c.Warmup + c.Measure, Rate: 0.3, MeanOutage: 12, Lanes: lanes,
			})
			c.Retry = vcsim.RetryPolicy{MaxAttempts: 3, Backoff: 4, BackoffCap: 16}
			if lanes == 0 {
				c.VirtualChannels, c.Rate = 1, 0.25
			} else {
				c.LaneDepth, c.SharedPool = 2, true
			}
		}
	}
	for _, row := range []struct {
		name   string
		set    func(*Config)
		expect func(Result) bool // what every run of the row must show
	}{
		// More arrivals a step than a chunk's budget: a step spans chunks.
		{"wide", func(c *Config) {
			c.Net, c.LaneDepth = NewButterflyNet(1024), 2
			c.Rate, c.Warmup, c.Measure, c.Drain, c.Window = 0.25, 3, 3, 0, 4
		}, nil},
		{"rigid", func(*Config) {}, nil},
		{"deep static", func(c *Config) { c.LaneDepth, c.Rate, c.Pattern = 4, 0.3, BitReverse }, nil},
		{"deep shared", func(c *Config) { c.LaneDepth, c.SharedPool, c.Rate = 4, true, 0.3 }, nil},
		{"random", func(c *Config) { c.Arbitration, c.Pattern = vcsim.ArbRandom, Hotspot }, nil},
		{"age", func(c *Config) { c.Arbitration, c.Pattern = vcsim.ArbAge, Transpose }, nil},
		{"restricted", func(c *Config) { c.RestrictedBandwidth, c.VirtualChannels, c.Pattern = true, 3, BitReverse }, nil},
		{"hotspots", func(c *Config) { c.Pattern, c.HotspotCount, c.HotspotFraction = Hotspot, 3, 0.3 }, nil},
		// Every message to one endpoint: the backlog passes MaxBacklog in
		// measurement, after the first chunk closes on chunkSteps.
		{"early stop", func(c *Config) {
			c.Pattern, c.HotspotFraction, c.Rate, c.Measure, c.MaxBacklog = Hotspot, 1, 0.1, 160, 70
		},
			func(res Result) bool { return res.EarlyStop && res.Steps > chunkSteps }},
		{"zero drain", func(c *Config) { c.Drain = 0 }, func(res Result) bool { return res.Truncated }},
		{"faults", faulted(0), nil},
		{"faults deep", faulted(1), nil},
		{"publish", func(c *Config) { c.Metrics, c.Publish = telemetry.NewMetrics(), &telemetry.Publisher{} }, nil},
		{"mesh", func(c *Config) { c.Net, c.Pattern = NewMeshNet(4, 4), Transpose }, nil},
		{"torus", func(c *Config) { c.Net, c.VirtualChannels, c.Rate = NewTorusNet(4, 4), 1, 0.2 }, nil},
	} {
		for _, proc := range []Process{Bernoulli, Poisson, OnOff} {
			cfg := base
			cfg.Process = proc
			row.set(&cfg)
			if cfg.Rate > cfg.MaxRate() {
				continue
			}
			t.Run(row.name+"/"+proc.String(), func(t *testing.T) {
				t.Parallel()
				c := checkRunner(t, cfg)
				if row.expect != nil && !row.expect(c.want.res) {
					t.Fatalf("the run does not show what the row is for: %+v", c.want.res)
				}
				property(c)
			})
		}
	}
}
