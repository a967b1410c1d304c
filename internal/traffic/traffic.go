// Package traffic is the steady-state open-loop traffic engine: it
// drives the incremental vcsim.Sim with continuous stochastic injection
// and measures the network at steady state, the regime in which router
// designs are conventionally compared (latency-vs-offered-load curves and
// saturation throughput) and which the batch theorems of the paper only
// bracket.
//
// A run is structured into three windows measured in flit steps:
//
//	warmup      injection on, nothing recorded — fills the network to
//	            steady state so cold-start transients don't bias stats;
//	measurement injection on — messages released in this window are
//	            tracked for latency, and deliveries completed in it are
//	            counted as accepted throughput;
//	drain       injection off — in-flight messages finish so tracked
//	            latencies aren't censored, bounded by a step budget.
//
// Injection is a per-endpoint stochastic process (Bernoulli, Poisson, or
// bursty on/off) combined with a spatial destination pattern (uniform,
// transpose, bit-reverse, hotspot) on any Network adapter. Latencies are
// streamed into a fixed-size quantile Sketch, so memory does not grow
// with the message count. Everything is deterministic in Config.Seed:
// identical configs produce identical Results, bit for bit, regardless of
// how many harness workers run around the engine.
package traffic

import (
	"errors"
	"fmt"
	"math"

	"wormhole/internal/fault"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/vcsim"
)

// saturationShortfall is the accepted/offered ratio below which a run is
// declared saturated: the network is refusing ≥ 5% of the offered load.
const saturationShortfall = 0.95

// Config parameterizes one open-loop run. The struct tags are the wire
// schema: wormholed's sweep spec embeds Config, so a tagged field is
// settable by a tenant under that JSON name and a `json:"-"` field
// (hooks, and what the daemon derives per point) is not.
type Config struct {
	// Net is the network adapter (required).
	Net *Network `json:"-"`
	// VirtualChannels is B ≥ 1, as in vcsim.Config.
	VirtualChannels int `json:"virtual_channels"`
	// LaneDepth is the flit capacity d of each virtual-channel lane
	// (0 means 1, the paper's single-flit buffers), as in vcsim.Config.
	LaneDepth int `json:"lane_depth,omitempty"`
	// SharedPool pools each edge's B·d flit credits dynamically across
	// its lanes, as in vcsim.Config.
	SharedPool bool `json:"shared_pool,omitempty"`
	// MessageLength is the worm length L in flits (required ≥ 1).
	MessageLength int `json:"message_length"`
	// Arbitration orders contending messages; default ArbByID.
	Arbitration vcsim.Policy `json:"arbitration,omitempty"`
	// RestrictedBandwidth selects the Section 1.4 remark model.
	RestrictedBandwidth bool `json:"restricted_bandwidth,omitempty"`

	// Process is the temporal injection process; default Bernoulli.
	Process Process `json:"process,omitempty"`
	// Rate is the offered load in messages per endpoint per flit step.
	// Bernoulli and OnOff cap it at 1 and the on/off duty cycle
	// respectively; Poisson accepts any rate up to 8.
	Rate float64 `json:"-"`
	// OnMean and OffMean are the OnOff process's mean burst and idle
	// lengths in steps (defaults 8 and 24).
	OnMean  float64 `json:"on_mean,omitempty"`
	OffMean float64 `json:"off_mean,omitempty"`

	// Pattern is the spatial destination pattern; default Uniform.
	Pattern Pattern `json:"pattern,omitempty"`
	// HotspotCount is the number of hot endpoints (default 1).
	HotspotCount int `json:"hotspot_count,omitempty"`
	// HotspotFraction is the probability a message targets a hot endpoint
	// (default 0.5).
	HotspotFraction float64 `json:"hotspot_fraction,omitempty"`

	// Warmup, Measure, Drain are the window lengths in flit steps.
	// Measure is required ≥ 1; Warmup and Drain may be 0.
	Warmup  int `json:"warmup,omitempty"`
	Measure int `json:"measure"`
	Drain   int `json:"drain,omitempty"`
	// MaxBacklog, when > 0, stops the run early (marking it Saturated) as
	// soon as more than MaxBacklog messages are simultaneously in flight.
	// Saturated open-loop runs accumulate unbounded backlog by
	// definition, so a cap turns a hopeless run into a cheap verdict —
	// essential inside the saturation search.
	MaxBacklog int `json:"max_backlog,omitempty"`

	// Seed makes the run deterministic.
	Seed uint64 `json:"seed,omitempty"`

	// NaiveScan runs the simulator's retained naive stepper instead of
	// the blocked-worm wakeup engine. Results are byte-identical (that
	// equivalence is what the differential tests assert with this knob);
	// the naive scan just re-attempts every blocked worm every step, so
	// saturated runs cost far more wall clock.
	NaiveScan bool `json:"-"`

	// Faults attaches a deterministic kill/revive schedule to the
	// underlying simulator (vcsim.Config.Faults). Runs with a schedule
	// are byte-identical across engines; accepted throughput and latency
	// then measure graceful degradation. On the wire it is a string in
	// the fault.Parse grammar.
	Faults fault.Schedule `json:"faults,omitempty"`
	// Retry is the fault retry policy for messages whose first edge is
	// dead before injection (vcsim.Config.Retry). Meaningful only with
	// Faults; the zero value disables retries.
	Retry vcsim.RetryPolicy `json:"-"`

	// Metrics, when non-nil, attaches a flight-recorder counter registry
	// to the underlying simulator (vcsim.Config.Metrics): stall-cause
	// attribution, park/wake totals, per-edge heatmap accumulators. Every
	// hot-path site is nil-gated, so a nil Metrics costs nothing and
	// results are byte-identical either way.
	Metrics *telemetry.Metrics `json:"-"`
	// Trace, when non-nil, attaches the structured event stream
	// (vcsim.Config.Trace) to the underlying simulator.
	Trace *telemetry.Trace `json:"-"`
	// Window, when > 0, splits a run into fixed-length windows of that
	// many flit steps and records a per-window time series: accepted
	// throughput, latency quantiles (over deliveries completing in the
	// window, whatever their release time), and backlog at window close.
	// A final partial window flushes when the run ends. Windowing
	// allocates only at window boundaries, never per step.
	Window int `json:"window,omitempty"`
	// OnStep, when non-nil, fires after every completed flit step of a
	// run — injection and drain phases alike — with the simulator's
	// current step. Returning a non-nil error pauses the run with all
	// state intact: Run (or Resume) returns that error verbatim, and
	// Resume continues the run where it stopped. Runner.Snapshot is
	// legal inside OnStep; that is how a driver checkpoints a live run.
	OnStep func(step int) error `json:"-"`
	// Publish, when non-nil (requires Window > 0), receives a metrics
	// snapshot — with the window series attached — at every window
	// boundary: the live feed behind wormholed's per-job /metrics.
	Publish *telemetry.Publisher `json:"-"`
}

func (c *Config) onOffMeans() (on, off float64) {
	on, off = c.OnMean, c.OffMean
	if on <= 0 {
		on = 8
	}
	if off <= 0 {
		off = 24
	}
	return on, off
}

//wormvet:nonalloc
func (c *Config) hotspotParams() (count int, frac float64) {
	count, frac = c.HotspotCount, c.HotspotFraction
	if count <= 0 {
		count = 1
	}
	if frac <= 0 {
		frac = 0.5
	}
	return count, frac
}

// MaxRate returns the largest offered load the configured process can
// generate: 1 for Bernoulli, the ON duty cycle for OnOff, and the
// validation cap of 8 for Poisson. The saturation search uses it as the
// default upper bracket.
func (c *Config) MaxRate() float64 {
	switch c.Process {
	case Bernoulli:
		return 1
	case OnOff:
		on, off := c.onOffMeans()
		return on / (on + off)
	default:
		return 8
	}
}

// Validate reports what NewRunner and RestoreRunner would refuse about c
// on a network of the given endpoint and edge counts, without one: c.Net
// is not consulted and nothing is allocated in proportion to the network.
// It is the two checks the constructors themselves make — validate here,
// vcsim.ValidateConfig inside NewSim and RestoreSim — so a service that
// refuses a submission with it and the engine that runs an accepted one
// cannot disagree.
func (c *Config) Validate(endpoints, numEdges int) error {
	if err := c.validate(endpoints); err != nil {
		return err
	}
	return vcsim.ValidateConfig(numEdges, c.simConfig())
}

// simConfig is the simulator configuration c describes (less OnComplete,
// which belongs to a Runner).
func (c *Config) simConfig() vcsim.Config {
	return vcsim.Config{
		VirtualChannels:     c.VirtualChannels,
		LaneDepth:           c.LaneDepth,
		SharedPool:          c.SharedPool,
		RestrictedBandwidth: c.RestrictedBandwidth,
		Arbitration:         c.Arbitration,
		Seed:                c.Seed,
		MaxSteps:            c.Warmup + c.Measure + c.Drain,
		NaiveScan:           c.NaiveScan,
		Faults:              c.Faults,
		Retry:               c.Retry,
		Metrics:             c.Metrics,
		Trace:               c.Trace,
	}
}

// validate checks what is traffic's own to state — the message length,
// the windows, the injection process and the pattern — and is all a
// retarget can break; the lanes, the horizon and the fault plane are
// vcsim.ValidateConfig's.
func (c *Config) validate(endpoints int) error {
	if c.MessageLength < 1 || c.MessageLength > MaxMessageLength {
		return fmt.Errorf("traffic: MessageLength %d outside [1, %d]", c.MessageLength, MaxMessageLength)
	}
	if c.Measure < 1 {
		return fmt.Errorf("traffic: Measure window %d < 1", c.Measure)
	}
	if c.Warmup < 0 || c.Drain < 0 {
		return fmt.Errorf("traffic: negative window (warmup %d, drain %d)", c.Warmup, c.Drain)
	}
	// The horizon is the windows' sum. Each term is bounded before it is
	// added, or a sum that wraps negative would pass the simulator's own
	// MaxSteps ≤ MaxHorizon test and fail only when a worker runs it.
	if c.Warmup > vcsim.MaxHorizon || c.Measure > vcsim.MaxHorizon-c.Warmup ||
		c.Drain > vcsim.MaxHorizon-c.Warmup-c.Measure {
		return fmt.Errorf("%w: windows %d + %d + %d exceed MaxHorizon %d", vcsim.ErrOverHorizon, c.Warmup, c.Measure, c.Drain, vcsim.MaxHorizon)
	}
	// Measure ≥ 1, so the ceiling is (steps-1)/Window + 1, which cannot
	// overflow however large Window is.
	if steps := c.Warmup + c.Measure + c.Drain; c.Window > 0 && (steps-1)/c.Window+1 > MaxWindows {
		return fmt.Errorf("traffic: %d steps in windows of %d make more than MaxWindows %d", steps, c.Window, MaxWindows)
	}
	// NaN compares false against every bound below and an infinite mean
	// turns the OnOff maximum into NaN, so non-finite values are refused
	// by name before the range checks can wave them through.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Rate", c.Rate}, {"OnMean", c.OnMean}, {"OffMean", c.OffMean},
		{"HotspotFraction", c.HotspotFraction},
	} {
		if !finite(f.v) {
			return fmt.Errorf("traffic: %s %g is not finite", f.name, f.v)
		}
	}
	if c.Rate <= 0 {
		return fmt.Errorf("traffic: Rate %g must be positive", c.Rate)
	}
	if max := c.MaxRate(); c.Rate > max {
		return fmt.Errorf("traffic: Rate %g exceeds the %s process maximum %g", c.Rate, c.Process, max)
	}
	// A hot endpoint is r.Intn(count)·n/count, a product that
	// count ≤ n ≤ MaxEndpoints keeps in range.
	if c.HotspotCount > endpoints {
		return fmt.Errorf("traffic: HotspotCount %d exceeds the endpoint count %d", c.HotspotCount, endpoints)
	}
	if c.Pattern.needsPow2() && endpoints&(endpoints-1) != 0 {
		return fmt.Errorf("traffic: %s pattern needs a power-of-two endpoint count, have %d", c.Pattern, endpoints)
	}
	if c.Window < 0 {
		return fmt.Errorf("traffic: Window %d < 0", c.Window)
	}
	if c.Window == 0 && c.Publish != nil {
		return errors.New("traffic: Publish requires Window > 0")
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Result reports one open-loop run. Latency statistics cover tracked
// messages: those released during the measurement window and delivered
// before the run ended.
type Result struct {
	Offered  float64 // configured rate (messages/endpoint/step)
	Accepted float64 // deliveries per endpoint per measured step

	Injected         int // messages injected across warmup + measurement
	Tracked          int // released in the measurement window
	TrackedDone      int // tracked messages that completed
	DeliveredMeasure int // deliveries that occurred inside the window

	MeanLatency   float64
	P50, P95, P99 float64
	MinLatency    int
	MaxLatency    int

	Steps       int // flit step at which the run stopped
	LastRelease int // release time of the last injected message
	Backlog     int // messages still in flight when the run stopped
	Aborted     int // messages abandoned by the fault-retry policy

	Saturated       bool // accepted fell ≥ 5% short of offered (or worse, below)
	EarlyStop       bool // MaxBacklog tripped before the windows completed
	Truncated       bool // drain budget exhausted with messages in flight
	Deadlocked      bool // the network deadlocked (possible on toruses at low B)
	FaultDeadlocked bool // the deadlock formed with dead resources present
}

// Runner executes open-loop runs of one fixed Config, reusing every
// engine allocation between runs: the vcsim.Sim (worm arena, wait
// queues, per-step scratch — see vcsim.Sim.Reset), the per-endpoint
// injectors and their rng sources, the arrival producer's chunks, and
// the latency sketch. After the first Run has sized the storage, the
// Runner itself allocates nothing per Run: at one P (GOMAXPROCS 1)
// subsequent Runs perform no heap allocation at all, which is what
// TestRunnerSteadyStateZeroAlloc pins. At more than one P, starting the
// arrival producer's goroutine can allocate a goroutine descriptor when
// the runtime has no free one on the starting P (the last producer may
// have exited on another); that count levels off as the runtime's free
// lists fill, but a single Run's count is not always 0.
//
// The simulator steps on the goroutine that calls Run or Resume. During
// the injection window the arrival stream runs ahead of it on a second
// goroutine (producer.go), which exits before Run or Resume returns.
// Results cannot depend on that: the stepper commits each step's
// arrival state in step order, and Results are byte-identical to the
// one-shot Run whatever the producer's lead — checkRunner's determinism
// and lead properties pin both. A Runner, like the Sim inside it, must not
// be shared across goroutines.
type Runner struct {
	cfg     Config
	horizon int
	sim     *vcsim.Sim
	parent  rng.Source
	// inject[e] is endpoint e's process state as of step t, and its rng
	// source as of step t is sources[e] advanced past t quiet steps
	// (source): each source is kept rewound by its quiet draws. A step
	// in which an endpoint only draws its quiet count then changes
	// nothing here, so the stepper commits a step in time proportional
	// to the endpoints whose step was not quiet, not to all of them.
	sources []rng.Source
	inject  []injector
	// params are what every endpoint's process shares, derived from cfg.
	params processParams
	prod   producer

	// Per-run measurement state, reset at the top of Run; the Sim's
	// OnComplete closure (built once) streams into these.
	sketch           Sketch
	trackedDone      int
	deliveredMeasure int

	// Windowed time-series state (Config.Window > 0 only). winSketch
	// collects the latencies of deliveries completing in the current
	// window; windows holds this run's flushed series.
	winSketch    Sketch
	winDelivered int64
	winInjBase   int
	winIndex     int
	windows      []telemetry.WindowStats

	// Run-in-progress state: Run is begin + Resume over these, so a
	// paused (or snapshot-restored) run continues exactly where it
	// stopped.
	phase       runPhase
	t           int    // next injection step (phaseInject)
	injectSteps int    // completed injection-phase steps
	res         Result // partial result, finalized by finish
}

// runPhase is the position of an in-progress run within its window
// structure.
type runPhase uint8

const (
	phaseIdle   runPhase = iota // no run in progress
	phaseInject                 // warmup + measurement: injection on
	phaseDrain                  // injection off, in-flight worms finishing
)

// newRunnerShell validates cfg and builds everything but the simulator:
// the runner, its measurement closures, and the vcsim.Config the caller
// feeds to NewSim (NewRunner) or RestoreSim (RestoreRunner).
func newRunnerShell(cfg Config) (*Runner, vcsim.Config, error) {
	if cfg.Net == nil {
		return nil, vcsim.Config{}, errors.New("traffic: Config.Net is required")
	}
	if cfg.Net.Endpoints < 1 {
		return nil, vcsim.Config{}, fmt.Errorf("traffic: network %q has no endpoints", cfg.Net.Label)
	}
	if cfg.Net.AppendRoute == nil {
		return nil, vcsim.Config{}, fmt.Errorf("traffic: network %q has no AppendRoute", cfg.Net.Label)
	}
	if err := cfg.validate(cfg.Net.Endpoints); err != nil {
		return nil, vcsim.Config{}, err
	}
	r := &Runner{
		cfg:     cfg,
		horizon: cfg.Warmup + cfg.Measure,
		sources: make([]rng.Source, cfg.Net.Endpoints),
		inject:  make([]injector, cfg.Net.Endpoints),
		params:  cfg.processParams(),
		prod:    newProducer(cfg.Net.Endpoints),
	}
	r.prod.body = r.produce
	onComplete := func(_ message.ID, st vcsim.MessageStats) {
		if st.Status != vcsim.StatusDelivered {
			return
		}
		// Deliveries stamped in (warmup, warmup+measure] happened during
		// measurement steps (an event in the step t→t+1 stamps t+1).
		if st.DeliverTime > cfg.Warmup && st.DeliverTime <= r.horizon {
			r.deliveredMeasure++
		}
		if st.Release >= cfg.Warmup && st.Release < r.horizon {
			r.trackedDone++
			r.sketch.Add(st.Latency())
		}
		if cfg.Window > 0 {
			r.winDelivered++
			r.winSketch.Add(st.Latency())
		}
	}
	simCfg := cfg.simConfig()
	simCfg.OnComplete = onComplete
	return r, simCfg, nil
}

// NewRunner validates cfg and builds a reusable open-loop runner.
func NewRunner(cfg Config) (*Runner, error) {
	r, simCfg, err := newRunnerShell(cfg)
	if err != nil {
		return nil, err
	}
	sim, err := vcsim.NewSim(cfg.Net.G, simCfg)
	if err != nil {
		return nil, err
	}
	r.sim = sim
	return r, nil
}

// retarget points the runner's next Run at another offered load and seed
// of the same configuration — all a saturation-search probe varies — after
// the same validation a fresh NewRunner would apply. The seed reaches the
// simulator's arbitration shuffle through the Reset that opens the run.
func (r *Runner) retarget(rate float64, seed uint64) error {
	cfg := r.cfg
	cfg.Rate, cfg.Seed = rate, seed
	if err := cfg.validate(cfg.Net.Endpoints); err != nil {
		return err
	}
	r.cfg = cfg
	r.params = cfg.processParams()
	r.sim.SetSeed(seed)
	return nil
}

// source returns endpoint e's rng source as of step r.t.
//
//wormvet:nonalloc
func (r *Runner) source(e int) rng.Source {
	src := r.sources[e]
	src.Advance(r.quietShift(e, r.t))
	return src
}

// setSource stores state as endpoint e's rng source as of step t, after
// inject[e] has been set to its process state then.
//
//wormvet:nonalloc
func (r *Runner) setSource(e, t int, state uint64) {
	r.sources[e].Reseed(state)
	r.sources[e].Advance(-r.quietShift(e, t))
}

// quietShift is how many rng outputs endpoint e would draw over steps
// [0, t) if each step it is due on were quiet: what its stored source is
// rewound by. It is due where the arrival producer's scan finds
// next < step+1 — on every step for a per-step process, whose next is 0
// in any run, though a restored snapshot may say otherwise.
//
//wormvet:nonalloc
func (r *Runner) quietShift(e, t int) uint64 {
	in := &r.inject[e]
	q := r.params.quietDraws(in)
	if q == 0 {
		return 0
	}
	steps := uint64(t)
	if in.next >= 1 { // false for NaN, which is due on every step
		steps = 0
		if d := float64(t) - math.Floor(in.next); d > 0 {
			steps = uint64(d)
		}
	}
	return steps * q
}

// Run executes one open-loop simulation and returns its measurements.
// Every call replays the same Config from scratch — same seed, same
// windows — over the retained storage. With Config.OnStep set, a
// paused run returns the OnStep error and Resume continues it.
func (r *Runner) Run() (Result, error) {
	r.begin()
	return r.Resume()
}

// begin resets the runner's per-run state for a fresh replay of cfg.
func (r *Runner) begin() {
	cfg := &r.cfg
	r.sim.Reset()
	r.sketch = Sketch{}
	r.trackedDone = 0
	r.deliveredMeasure = 0
	r.winSketch = Sketch{}
	r.winDelivered = 0
	r.winInjBase = 0
	r.winIndex = 0
	r.windows = r.windows[:0]
	if cfg.Publish != nil {
		// The last run's series may still be what the Publisher holds
		// (flushWindow shares it): start a fresh one, never rewrite it.
		r.windows = nil
	}
	// Per-endpoint sources are pre-split in index order, so endpoint i's
	// arrival and destination stream depends only on (Seed, i). At step 0
	// there is nothing to rewind.
	r.parent.Reseed(cfg.Seed)
	for i := range r.sources {
		r.parent.SplitInto(&r.sources[i])
		r.inject[i] = newInjector(cfg, &r.sources[i])
	}
	r.res = Result{Offered: cfg.Rate, LastRelease: -1}
	r.t = 0
	r.injectSteps = 0
	r.phase = phaseInject
}

// Resume continues a run paused by an OnStep error (or reconstructed by
// RestoreRunner) until it completes or pauses again. Calling Resume
// with no run in progress is an error.
func (r *Runner) Resume() (Result, error) {
	if r.phase == phaseIdle {
		return Result{}, errors.New("traffic: Resume with no run in progress")
	}
	if r.phase == phaseInject {
		if res, done, err := r.injectWindow(); done {
			return res, err
		}
	}
	sim := r.sim
	for sim.Active() > 0 {
		if err := sim.Step(); err != nil {
			r.res.Deadlocked = errors.Is(err, vcsim.ErrDeadlocked)
			break
		}
		if cb := r.cfg.OnStep; cb != nil {
			if err := cb(sim.Now()); err != nil {
				return Result{}, err
			}
		}
	}
	return r.finish(), nil
}

// injectWindow runs the injection phase from step r.t, with the arrival
// producer running ahead, until the window closes (done false: the drain
// follows) or the run ends or pauses inside it (done true).
func (r *Runner) injectWindow() (res Result, done bool, err error) {
	r.startArrivals()
	defer r.stopArrivals()
	cfg := &r.cfg
	sim := r.sim
	msg := message.Message{Length: cfg.MessageLength}
	for r.phase == phaseInject {
		t := r.t
		before := sim.Injected()
		for last := false; !last; {
			if last, err = r.injectSegment(&msg, t); err != nil {
				r.phase = phaseIdle
				return Result{}, true, fmt.Errorf("traffic: inject at step %d: %w", t, err)
			}
		}
		if n := sim.Injected() - before; n > 0 {
			r.res.LastRelease = t
			if t >= cfg.Warmup {
				r.res.Tracked += n
			}
		}
		// StepTo is Step with event-horizon fast-forward: one real flit
		// step when any worm can move or admit, a free clock jump across
		// the idle steps an empty network would otherwise burn one by one
		// (light loads and saturation-search probes sit idle for long
		// stretches between arrivals).
		if err := sim.StepTo(t + 1); err != nil {
			// A failed run skips the drain: the verdict is in, and a
			// deadlocked network will not drain anyway.
			r.res.Deadlocked = errors.Is(err, vcsim.ErrDeadlocked)
			return r.finish(), true, nil
		}
		r.t++
		r.injectSteps++
		if w := cfg.Window; w > 0 && r.t%w == 0 {
			r.flushWindow(r.t-w, r.t)
		}
		if cfg.MaxBacklog > 0 && sim.Active() > cfg.MaxBacklog {
			r.res.EarlyStop = true
			return r.finish(), true, nil
		}
		if r.t >= r.horizon {
			// Injection off; in-flight messages finish inside the
			// remaining step budget.
			r.phase = phaseDrain
		}
		if cb := cfg.OnStep; cb != nil {
			if err := cb(r.t); err != nil {
				return Result{}, true, err
			}
		}
	}
	return Result{}, false, nil
}

// finish flushes the final partial window, derives the run's statistics
// from the streamed state, and retires the in-progress run.
func (r *Runner) finish() Result {
	cfg := &r.cfg
	net := cfg.Net
	sim := r.sim
	if cfg.Window > 0 {
		// Flush the final partial window (drain steps included) so the
		// series covers the whole run.
		start := r.winIndex * cfg.Window
		if end := sim.Now(); end > start || r.winDelivered > 0 {
			r.flushWindow(start, end)
		}
	}

	sim.FoldFaultTime() // close open outage spans in the fault-time heatmap
	res := r.res
	res.Injected = sim.Injected()
	res.Steps = sim.Now()
	res.Backlog = sim.Active()
	res.Aborted = sim.Aborted()
	res.FaultDeadlocked = sim.FaultDeadlocked()
	res.Truncated = sim.Truncated()
	res.TrackedDone = r.trackedDone
	res.DeliveredMeasure = r.deliveredMeasure
	if n := r.sketch.Count(); n > 0 {
		res.MeanLatency = r.sketch.Mean()
		res.P50 = r.sketch.Quantile(0.50)
		res.P95 = r.sketch.Quantile(0.95)
		res.P99 = r.sketch.Quantile(0.99)
		res.MinLatency = r.sketch.Min()
		res.MaxLatency = r.sketch.Max()
	}
	// Accepted throughput normalizes deliveries over the measurement
	// steps the run actually executed, so an early stop still yields a
	// meaningful (and damning) number.
	measured := r.injectSteps - cfg.Warmup
	if measured > cfg.Measure {
		measured = cfg.Measure
	}
	if measured > 0 {
		res.Accepted = float64(r.deliveredMeasure) / (float64(net.Endpoints) * float64(measured))
	}
	// Saturation verdict: a definitive failure (deadlock, backlog blowup)
	// or accepted throughput falling ≥ 5% short of offered. The shortfall
	// test subtracts a 3σ Poisson allowance (the window sees ~expected
	// arrivals, so counts fluctuate by √expected) — without it, short
	// measurement windows at low load flag spurious saturation on pure
	// boundary noise. Truncation alone is deliberately NOT a verdict: a
	// short (even zero) drain budget leaves the steady-state in-flight
	// population stranded at any load, which censors tail latencies but
	// says nothing about sustainability — the window shortfall already
	// catches genuine saturation.
	expected := res.Offered * float64(net.Endpoints) * float64(measured)
	shortfall := saturationShortfall*expected - 3*math.Sqrt(expected)
	res.Saturated = res.Deadlocked || res.EarlyStop ||
		float64(r.deliveredMeasure) < shortfall
	r.res = res
	r.phase = phaseIdle
	return res
}

// flushWindow closes the window [start, end): records its stats and —
// when a Publisher is configured — publishes a metrics snapshot with the
// series attached. Runs at window boundaries only; this
// is where all windowing allocation happens.
//
// The series is published without a copy, which would make a run's
// cost quadratic in its window count. It is capped at its length, and
// a run only appends to it, so no element a Publisher holds is ever
// rewritten; begin starts a publishing runner's next run on a fresh
// series.
func (r *Runner) flushWindow(start, end int) {
	ws := telemetry.WindowStats{
		Index:     r.winIndex,
		Start:     int64(start),
		End:       int64(end),
		Injected:  int64(r.sim.Injected() - r.winInjBase),
		Delivered: r.winDelivered,
		Backlog:   int64(r.sim.Active()),
	}
	if r.winSketch.Count() > 0 {
		ws.LatMean = r.winSketch.Mean()
		ws.LatP50 = r.winSketch.Quantile(0.50)
		ws.LatP95 = r.winSketch.Quantile(0.95)
		ws.LatP99 = r.winSketch.Quantile(0.99)
		ws.LatMax = int64(r.winSketch.Max())
	}
	r.windows = append(r.windows, ws)
	r.winIndex++
	r.winInjBase = r.sim.Injected()
	r.winDelivered = 0
	r.winSketch = Sketch{}
	if p := r.cfg.Publish; p != nil {
		var s telemetry.Snapshot
		if r.cfg.Metrics != nil {
			s = r.cfg.Metrics.Snapshot()
		}
		s.Windows = r.windows[:len(r.windows):len(r.windows)]
		p.Publish(s)
	}
}

// Windows returns the last Run's per-window time series (nil unless
// Config.Window > 0). The slice is reused by the next Run.
func (r *Runner) Windows() []telemetry.WindowStats { return r.windows }

// Injected returns how many messages the run in progress (or the last
// one) has injected so far. It reads the simulator, so inside OnStep it
// counts exactly the messages of the steps completed, however far ahead
// the arrival producer has routed.
func (r *Runner) Injected() int { return r.sim.Injected() }

// Close is a no-op: a Runner holds no goroutines or other resources to
// release (its arrival producer lives only inside Resume). It survives only because benchmark/{bisect,ckpt,sim}.go call
// it and benchmark/ is frozen outside benchmark PRs — delete it with
// those calls at the next one (ROADMAP, frozen-surface shims).
func (r *Runner) Close() {}

// Run executes one open-loop simulation and returns its measurements: a
// one-shot NewRunner + Runner.Run. Drivers that replay similar
// configurations repeatedly (benchmarks, saturation searches at one
// operating point) should hold a Runner instead and reuse its storage.
func Run(cfg Config) (Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	return r.Run()
}
