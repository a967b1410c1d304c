package core

import (
	"fmt"

	"wormhole/internal/fault"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// The open-loop studies, T12–T16, as declarations for the engine in
// batch.go. Each crosses a grid of router buffer architectures (B, lane
// depth d, a static or a shared pool) with a second axis — offered
// loads, or lane-fault rates at one fixed load — on a butterfly
// carrying a continuous Poisson/uniform stream, observed at steady
// state through warmup / measurement / drain windows; T12–T14 add a
// table of each architecture's bisected saturation rate. What a study's
// tables share — its grid at each scale, its seed rule and its -scale
// rule — is an openLoop, whose methods are the cells, measures and
// validate its batches use. README.md carries each study's narrative; a
// declaration states only the question it asks and the property its
// tests pin.

func init() {
	registerBatch("T12", "Open-loop steady state — latency-vs-load curves and saturation rate vs B", t12Curve, t12Sat)
	registerBatch("T13", "Buffer architectures — lane depth and shared pools: load curves and saturation", t13Curve, t13Sat)
	registerBatch("T14", "Scale study — 256-input butterfly (offline: -scale 1024): load curves and saturation over (B, d)", t14Curve, t14Sat)
	registerBatch("T15", "Scale study — 1024-input butterfly (offline: -scale 4096): load curves across the knee into deep saturation", t15Curve)
	registerBatch("T16", "Graceful degradation — accepted throughput and p99 vs lane-fault rate across B∈{1,2,4,8} on the 64-input butterfly", t16Curve)
}

// loadGrid is one scale of a study: the network, the architecture grid
// crossed with the second axis, and the observation windows of every
// run, in flit steps.
type loadGrid struct {
	n     int       // butterfly inputs; 0 in a quick grid inherits the full (or -scale) size
	bs    []int     // virtual channels
	ds    []int     // lane depths; rigid leaves LaneDepth unset
	pools []int     // static, shared
	axis  []float64 // offered loads, or lane-fault rates when the study fixes the load
	// warmup, measure and drain are the windows; maxBacklog is the
	// in-flight message count past which a run stops early.
	warmup, measure, drain, maxBacklog int
	search                             traffic.SearchOptions // bisection bracket and depth
	meanOutage                         int                   // mean lane outage in steps (fault axis only)
}

// The pools, as a cell's mode.
const (
	static = iota
	shared
)

var (
	rigid      = []int{0}
	staticOnly = []int{static}
	poolNames  = []string{static: "static", shared: "shared"}
)

// openLoop is what one study's tables share.
type openLoop struct {
	id          string
	full, quick loadGrid
	// minScale is the smallest -scale the study accepts; 0 means the
	// study has one network size and ignores -scale.
	minScale int
	// fixedLoad, when non-zero, turns the second axis into lane-fault
	// rates swept at this one offered load.
	fixedLoad float64
	// The seed rule. A run's seed is Seed + B·stride, plus sharedSeed on
	// a shared pool, plus ⌊rate·10⁶⌋ on a load axis. Lane depth and fault
	// rate never enter, so every depth of one (B, pool) family — and
	// every fault rate of one B — sees the same arrival sample paths and
	// is compared like-for-like. satStride replaces stride in the
	// bisections (0 = same as stride).
	stride, sharedSeed, satStride uint64
	retry                         vcsim.RetryPolicy
	// latencyIfInjected keeps a run's latencies whenever it injected
	// anything; by default they are left out (rendered "-") unless a
	// tracked message completed.
	latencyIfInjected bool
}

// faultSeed offsets the outage process from the arrival processes.
const faultSeed = 16001

// grid resolves the scale cfg selects. It is the one place -scale is
// checked.
func (s *openLoop) grid(cfg Config) (loadGrid, error) {
	g := s.full
	if cfg.Scale > 0 && s.minScale > 0 {
		if n := cfg.Scale; n&(n-1) != 0 || n < s.minScale || n > traffic.MaxEndpoints {
			return loadGrid{}, fmt.Errorf("%s: -scale %d is not a power-of-two butterfly size in [%d, %d]", s.id, n, s.minScale, traffic.MaxEndpoints)
		}
		g.n = cfg.Scale
	}
	if cfg.Quick {
		n := g.n
		g = s.quick
		if g.n == 0 {
			g.n = n
		}
	}
	return g, nil
}

func (s *openLoop) validate(cfg Config) error {
	_, err := s.grid(cfg)
	return err
}

// at is grid for a Config core.Run has already validated.
func (s *openLoop) at(cfg Config) loadGrid {
	g, err := s.grid(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// curve lists a load curve's cells in table order: per B, per pool,
// per depth, the second axis.
func (s *openLoop) curve(cfg Config) []cell {
	g := s.at(cfg)
	var cells []cell
	for _, c := range s.families(g) {
		for _, d := range g.ds {
			for _, x := range g.axis {
				c.d, c.rate = d, x
				if s.fixedLoad > 0 {
					c.rate, c.fault = s.fixedLoad, x
				}
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// families lists one cell per (B, pool), in table order: the cells a
// saturation table crosses with lane depth.
func (s *openLoop) families(g loadGrid) []cell {
	var cells []cell
	for _, b := range g.bs {
		for _, pool := range g.pools {
			cells = append(cells, cell{n: g.n, B: b, mode: pool, label: poolNames[pool]})
		}
	}
	return cells
}

// traffic builds the run configuration of cell c at grid g, seeded by
// the study's rule with the given B stride.
func (s *openLoop) traffic(cfg Config, g loadGrid, c cell, stride uint64) traffic.Config {
	seed := cfg.Seed + uint64(c.B)*stride
	if c.mode == shared {
		seed += s.sharedSeed
	}
	return traffic.Config{
		Net:             traffic.NewButterflyNet(g.n),
		VirtualChannels: c.B,
		LaneDepth:       c.d,
		SharedPool:      c.mode == shared,
		MessageLength:   topology.Log2(g.n),
		Arbitration:     vcsim.ArbAge,
		Process:         traffic.Poisson,
		Rate:            c.rate,
		Pattern:         traffic.Uniform,
		Warmup:          g.warmup,
		Measure:         g.measure,
		Drain:           g.drain,
		MaxBacklog:      g.maxBacklog,
		Seed:            seed,
		Retry:           s.retry,
		Metrics:         cfg.metrics(),
		OnStep:          cfg.onStep(),
	}
}

// point runs one load-curve cell.
func (s *openLoop) point(cfg Config, c cell, _ int) vals {
	g := s.at(cfg)
	tc := s.traffic(cfg, g, c, s.stride)
	v := vals{}
	if s.fixedLoad > 0 {
		// Everything but the rate is fixed — seed, edge count, horizon,
		// mean outage — so the outage sets are nested across fault rates
		// and shared across B.
		tc.Faults = fault.Generate(fault.GenConfig{
			Seed:       cfg.Seed + faultSeed,
			NumEdges:   tc.Net.G.NumEdges(),
			Horizon:    g.warmup + g.measure,
			Rate:       c.fault,
			MeanOutage: g.meanOutage,
			Lanes:      1,
		})
		v["outages"] = float64(outages(tc.Faults))
	} else {
		tc.Seed += uint64(c.rate * 1e6)
	}
	res, err := traffic.Run(tc)
	if err != nil {
		panic(fmt.Sprintf("%s: B=%d d=%d %s at %g: %v", s.id, c.B, c.d, c.label, c.rate, err))
	}
	v["offered"], v["accepted"], v["messages"] = res.Offered, res.Accepted, float64(res.Injected)
	v["aborted"], v["backlog"], v["saturated"] = float64(res.Aborted), float64(res.Backlog), b2f(res.Saturated)
	// A run that collapsed before any tracked message completed has no
	// latency sample: its latencies render "-" rather than a misleading 0.
	if res.TrackedDone > 0 || (s.latencyIfInjected && res.Injected > 0) {
		v["mean latency"], v["p50"], v["p95"], v["p99"] = res.MeanLatency, res.P50, res.P95, res.P99
	}
	return v
}

// outages counts the edges a schedule afflicts (each edge draws at most
// one outage, opened by its first kill event).
func outages(s fault.Schedule) int {
	n := 0
	for _, ev := range s {
		if ev.Kind == fault.KillLane || ev.Kind == fault.KillEdge {
			n++
		}
	}
	return n
}

// saturation bisects cell c's saturation rate. Once a probe has been
// sustained, a search runs the next probe beside the current one on a
// second Runner when the process has more than one P, so its job may
// use two cores; the result is the serial search's either way.
func (s *openLoop) saturation(cfg Config, c cell, _ int) vals {
	stride := s.satStride
	if stride == 0 {
		stride = s.stride
	}
	g := s.at(cfg)
	sr, err := traffic.SaturationRate(s.traffic(cfg, g, c, stride), g.search)
	if err != nil {
		panic(fmt.Sprintf("%s: saturation search B=%d d=%d %s: %v", s.id, c.B, c.d, c.label, err))
	}
	return vals{"sat rate": sr.Rate, "probes": float64(len(sr.Probes))}
}

// The columns the studies share.
var (
	colPool      = colLabel("pool")
	colFaultRate = batchCol{"fault rate", func(r *batchRow) any { return r.fault }}
	colSatRate   = num("sat rate")
	colVsB1      = gain("vs B=1", "sat rate")
	colVsD1      = gain("vs d=1", "sat rate")
	colProbes    = count("probes")
)

// T12 — the open-loop restatement of the paper's claim: latency-vs-load
// curves per B on the 64-input butterfly, and the bisected saturation
// rate, which grows faster than linearly in B (the per-channel column
// would be flat if the benefit were linear). Pinned: the rate is
// non-decreasing in B, and the wakeup engine matches the naive scan on
// every load point and bisection.
var t12 = &openLoop{
	id: "T12",
	full: loadGrid{
		n: 64, bs: []int{1, 2, 4, 8}, ds: rigid, pools: staticOnly,
		axis:   []float64{0.05, 0.10, 0.15, 0.20, 0.30, 0.45, 0.65, 0.90},
		warmup: 256, measure: 1024, drain: 4096, maxBacklog: 16384,
		search: traffic.SearchOptions{Hi: 4, Iters: 12},
	},
	quick: loadGrid{
		n: 16, bs: []int{1, 4}, ds: rigid, pools: staticOnly,
		axis:   []float64{0.05, 0.20, 0.50},
		warmup: 32, measure: 128, drain: 512, maxBacklog: 2048,
		search: traffic.SearchOptions{Hi: 2, Iters: 6},
	},
	stride:    1009,
	satStride: 7919,
}

var t12Curve = &batch{
	title:   "T12 — open-loop steady state: latency vs offered load (Poisson, uniform)",
	cells:   t12.curve,
	measure: t12.point,
	cols: []batchCol{colCellN, colCellB, num("offered"), num("accepted"), count("messages"),
		num("mean latency"), num("p50"), num("p95"), num("p99"), flag("saturated")},
}

var t12Sat = &batch{
	title:   "T12 — saturation rate vs B (bisection on offered load)",
	cells:   func(cfg Config) []cell { return []cell{{n: t12.at(cfg).n}} },
	bs:      t12.full.bs,
	quickBs: t12.quick.bs,
	measure: t12.saturation,
	cols: []batchCol{colCellN, colCellB, colSatRate, colVsB1,
		{"per channel", func(r *batchRow) any { return r.mean("sat rate") / float64(r.B) }}, colProbes},
}

// T13 — buffer architecture: at fixed B, how much of the B-scaling
// benefit can lane depth, or a shared pool of equal total storage, buy
// instead? The d = 1 static rows are T12's router bit-for-bit. Pinned:
// per (B, pool) the saturation rate is non-decreasing in d — a
// like-for-like comparison, because depth never enters the seed.
var t13 = &openLoop{
	id: "T13",
	full: loadGrid{
		n: 64, bs: []int{2, 4}, ds: []int{1, 2, 4}, pools: []int{static, shared},
		axis:   []float64{0.10, 0.25, 0.40, 0.60, 0.85},
		warmup: 256, measure: 1024, drain: 4096, maxBacklog: 16384,
		search: traffic.SearchOptions{Hi: 4, Iters: 12},
	},
	quick: loadGrid{
		n: 16, bs: []int{2}, ds: []int{1, 2, 4}, pools: []int{static, shared},
		axis:   []float64{0.10, 0.30},
		warmup: 32, measure: 128, drain: 512, maxBacklog: 2048,
		search: traffic.SearchOptions{Hi: 2, Iters: 8},
	},
	stride:     2707,
	sharedSeed: 7127,
}

var t13Curve = &batch{
	title:   "T13 — buffer architectures: latency vs offered load (Poisson, uniform)",
	cells:   t13.curve,
	measure: t13.point,
	cols: []batchCol{colCellN, colCellB, colCellD, colPool, num("offered"), num("accepted"),
		count("messages"), num("mean latency"), num("p95"), num("p99"), flag("saturated")},
}

var t13Sat = &batch{
	title:   "T13 — saturation rate over (B, lane depth, pool) (bisection on offered load)",
	cells:   func(cfg Config) []cell { return t13.families(t13.at(cfg)) },
	ds:      t13.full.ds,
	quickDs: t13.quick.ds,
	measure: t13.saturation,
	cols: []batchCol{colCellN, colCellB, colCellD, colPool, colSatRate, colVsD1,
		{"per flit buffer", func(r *batchRow) any { return r.mean("sat rate") / float64(r.B*r.d) }}, colProbes},
}

// T14 — T13's (B, d) question on static lanes at a 256-input butterfly
// (-scale 1024 is the documented offline size; quick drops to n = 64
// whatever the scale). Pinned: the light load point is unsaturated for
// every architecture, and the saturation rate is non-decreasing in d.
var t14 = &openLoop{
	id: "T14",
	full: loadGrid{
		n: 256, bs: []int{2, 4}, ds: []int{1, 4}, pools: staticOnly,
		axis:   []float64{0.10, 0.30, 0.50},
		warmup: 512, measure: 2048, drain: 8192, maxBacklog: 1 << 16,
		search: traffic.SearchOptions{Hi: 2, Iters: 10},
	},
	quick: loadGrid{
		n: 64, bs: []int{2, 4}, ds: []int{1, 4}, pools: staticOnly,
		axis:   []float64{0.10, 0.30},
		warmup: 64, measure: 256, drain: 1024, maxBacklog: 4096,
		search: traffic.SearchOptions{Hi: 2, Iters: 6},
	},
	minScale: 8,
	stride:   4099,
}

var t14Curve = &batch{
	title:    "T14 — scale study: latency vs offered load on the wide butterfly (Poisson, uniform)",
	cells:    t14.curve,
	measure:  t14.point,
	validate: t14.validate,
	cols: []batchCol{colCellN, colCellB, colCellD, num("offered"), num("accepted"), count("messages"),
		num("mean latency"), num("p95"), num("p99"), flag("saturated")},
}

var t14Sat = &batch{
	title:   "T14 — scale study: saturation rate over (B, lane depth) (bisection on offered load)",
	cells:   func(cfg Config) []cell { return t14.families(t14.at(cfg)) },
	ds:      t14.full.ds,
	quickDs: t14.quick.ds,
	measure: t14.saturation,
	cols:    []batchCol{colCellN, colCellB, colCellD, colSatRate, colVsD1, colProbes},
}

// T15 — the load curve carried across the knee into deep saturation on
// a 1024-input butterfly (-scale 4096 is the offline size), where the
// standing backlog is on the order of a million flits. No bisection
// table: at this scale the curve already brackets the knee. Pinned:
// quick keeps the full network — the scale is the point — and shrinks
// only the grid and the windows.
var t15 = &openLoop{
	id: "T15",
	full: loadGrid{
		n: 1024, bs: []int{2, 4}, ds: rigid, pools: staticOnly,
		axis:   []float64{0.10, 0.25, 0.40},
		warmup: 256, measure: 1024, drain: 16384, maxBacklog: 1 << 20,
	},
	quick: loadGrid{
		bs: []int{2}, ds: rigid, pools: staticOnly,
		axis:   []float64{0.25, 0.40},
		warmup: 64, measure: 192, drain: 2048, maxBacklog: 1 << 18,
	},
	minScale: 256,
	stride:   8209,
}

var t15Curve = &batch{
	// The title is frozen verbatim: benchmark/'s tables-quick golden
	// digest hashes `wormbench -all -quick -csv` stdout, title lines
	// included. Reword it (the stepper it names is gone) at the next
	// benchmark PR (ROADMAP, frozen-surface shims).
	title:    "T15 — parallel scale study: latency vs offered load on the sharded wide butterfly (Poisson, uniform)",
	cells:    t15.curve,
	measure:  t15.point,
	validate: t15.validate,
	cols: []batchCol{colCellN, colCellB, num("offered"), num("accepted"), count("messages"),
		num("mean latency"), num("p95"), num("p99"), count("backlog"), flag("saturated")},
}

// T16 — graceful degradation: the paper argues virtual channels route
// around blocked resources; how far does the same lane multiplicity
// carry when resources fail? One offered load below the B = 1 knee,
// with a seed-derived outage process killing one lane per afflicted
// edge — the whole link at B = 1, an eighth of it at B = 8. The outage
// sets are nested across fault rates and every rate of one B sees the
// same arrivals. Pinned: accepted throughput is non-increasing in the
// fault rate, and B = 8 retains a larger share of its fault-free
// throughput than B = 1.
var t16 = &openLoop{
	id: "T16",
	full: loadGrid{
		n: 64, bs: []int{1, 2, 4, 8}, ds: rigid, pools: staticOnly,
		axis:   []float64{0, 0.1, 0.25, 0.5, 1.0},
		warmup: 128, measure: 768, drain: 1 << 14, maxBacklog: 1 << 16,
		meanOutage: 192,
	},
	quick: loadGrid{
		n: 64, bs: []int{1, 8}, ds: rigid, pools: staticOnly,
		axis:   []float64{0, 0.5},
		warmup: 32, measure: 192, drain: 1 << 12, maxBacklog: 1 << 16,
		meanOutage: 64,
	},
	fixedLoad: 0.04,
	stride:    16411,
	// Messages whose first edge is dead at injection retry with capped
	// exponential backoff in simulated time.
	retry:             vcsim.RetryPolicy{MaxAttempts: 8, Backoff: 16, BackoffCap: 1024},
	latencyIfInjected: true,
}

var t16Curve = &batch{
	title:   "T16 — graceful degradation: accepted throughput and tail latency vs lane-fault rate (64-input butterfly, Poisson uniform, fixed offered load)",
	cells:   t16.curve,
	measure: t16.point,
	cols: []batchCol{colCellN, colCellB, colFaultRate, count("outages"), num("offered"), num("accepted"),
		count("messages"), count("aborted"), num("mean latency"), num("p95"), num("p99"),
		count("backlog"), flag("saturated")},
}
