package core

import (
	"fmt"
	"math"
	"slices"

	"wormhole/internal/fault"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// This file is the open-loop study engine. T12–T16 are one experiment
// shape: a grid of router buffer architectures (B, d, pool) crossed
// with a second axis — offered loads, or lane-fault rates at one fixed
// load — on a butterfly carrying a continuous Poisson/uniform stream,
// observed at steady state through warmup / measurement / drain
// windows, plus (where the study asks for it) a deterministic bisection
// of each architecture's saturation rate. A study (studies.go) is data;
// everything that executes lives here, once: the traffic.Config builder,
// the study's one mapJobs fan-out (measure), the -scale check, the seed
// rule, the latency guard and the baseline lookup.

// arch is one router buffer architecture of the study grid.
type arch struct {
	B      int  // virtual channels per edge
	D      int  // lane depth in flits; 0 leaves the simulator default (see rigid)
	Shared bool // lanes draw on one shared pool instead of private storage
}

// label names the architecture in failure messages.
func (a arch) label() string {
	s := fmt.Sprintf("B=%d", a.B)
	if a.D > 0 {
		s += fmt.Sprintf(" d=%d", a.D)
	}
	if a.Shared {
		s += " shared"
	}
	return s
}

const (
	static = false
	shared = true
)

// rigid is the depth axis of a study that does not sweep lane depth:
// LaneDepth stays unset, which is the paper's rigid-worm router.
var rigid = []int{0}

// archGrid flattens a (B, pool, d) grid in table order: per B, pools in
// the order given, depths ascending.
func archGrid(bs, depths []int, pools ...bool) []arch {
	out := make([]arch, 0, len(bs)*len(pools)*len(depths))
	for _, b := range bs {
		for _, pool := range pools {
			for _, d := range depths {
				out = append(out, arch{B: b, D: d, Shared: pool})
			}
		}
	}
	return out
}

// windows is the observation schedule of one run, in flit steps, and
// the in-flight message count past which the run stops early.
type windows struct{ warmup, measure, drain, maxBacklog int }

// geometry is one scale of a study: the network, the grid, and the
// observation windows. A study declares two, full and quick.
type geometry struct {
	n     int       // butterfly inputs; 0 in a quick geometry inherits the full (or -scale) size
	archs []arch    // architecture grid, in table order
	axis  []float64 // offered loads, or lane-fault rates when the study fixes the load
	windows
	search     traffic.SearchOptions // bisection bracket and depth
	meanOutage int                   // mean lane outage in steps (fault axis only)
}

// study declares one open-loop experiment.
type study struct {
	id, title   string
	full, quick geometry
	// minScale is the smallest -scale the study accepts; 0 means the
	// study has one network size and ignores -scale.
	minScale int
	// fixedLoad, when non-zero, turns the second axis into lane-fault
	// rates swept at this one offered load.
	fixedLoad float64
	// The seed rule. A point's seed is Seed + B·stride, plus sharedSeed
	// on a shared pool, plus ⌊rate·10⁶⌋ on a load axis. Lane depth and
	// fault rate never enter, so every depth of one (B, pool) family —
	// and every fault rate of one B — sees the same arrival sample
	// paths and is compared like-for-like. satStride replaces stride in
	// the bisection half (0 = same as stride).
	stride, sharedSeed, satStride uint64
	retry                         vcsim.RetryPolicy
	// latencyIfInjected keeps a latency cell whenever the point injected
	// anything; the default blanks it unless a tracked message completed.
	latencyIfInjected bool
	curve             tableSpec
	sat               tableSpec // no columns = no bisection half
}

// faultSeed offsets the outage process from the arrival processes.
const faultSeed = 16001

// point is one measured grid point. A curve job fills the embedded
// Result (and the fault fields on a fault axis); a bisection job fills
// SatRate and Probes. Fields are exported because points are what the
// checkpoint layer stores.
type point struct {
	N         int
	Arch      arch
	FaultRate float64
	Outages   int // edges afflicted by the fault schedule
	traffic.Result
	SatRate float64
	Probes  int
}

// geometry resolves the scale cfg selects. It is the one place -scale
// is checked.
func (st *study) geometry(cfg Config) (geometry, error) {
	g := st.full
	if cfg.Scale > 0 && st.minScale > 0 {
		if n := cfg.Scale; n&(n-1) != 0 || n < st.minScale || n > traffic.MaxEndpoints {
			return geometry{}, fmt.Errorf("%s: -scale %d is not a power-of-two butterfly size in [%d, %d]", st.id, n, st.minScale, traffic.MaxEndpoints)
		}
		g.n = cfg.Scale
	}
	if cfg.Quick {
		n := g.n
		g = st.quick
		if g.n == 0 {
			g.n = n
		}
	}
	return g, nil
}

func (st *study) validate(cfg Config) error {
	_, err := st.geometry(cfg)
	return err
}

// traffic builds the run configuration of one architecture at one
// offered load, seeded by the study's rule with the given B stride.
func (st *study) traffic(cfg Config, g geometry, a arch, rate float64, stride uint64) traffic.Config {
	seed := cfg.Seed + uint64(a.B)*stride
	if a.Shared {
		seed += st.sharedSeed
	}
	return traffic.Config{
		Net:             traffic.NewButterflyNet(g.n),
		VirtualChannels: a.B,
		LaneDepth:       a.D,
		SharedPool:      a.Shared,
		MessageLength:   topology.Log2(g.n),
		Arbitration:     vcsim.ArbAge,
		Process:         traffic.Poisson,
		Rate:            rate,
		Pattern:         traffic.Uniform,
		Warmup:          g.warmup,
		Measure:         g.measure,
		Drain:           g.drain,
		MaxBacklog:      g.maxBacklog,
		Seed:            seed,
		Retry:           st.retry,
		Metrics:         cfg.metrics(),
		OnStep:          cfg.onStep(),
	}
}

// measure runs the study as one fan-out and returns its curve points
// and saturation rows, each in table order. The job list is the two
// tables read backwards — the bisections first, last architecture
// first, then the curve from its last row up — so the costliest jobs
// start first: a bisection is Iters+1 runs where a curve point is one,
// and archGrid grows B and d along the table, and with them the knee
// and every probe's message count. In table order the longest
// bisection would start last and run alone.
func (st *study) measure(cfg Config, g geometry) (curve, sat []point) {
	nCurve := len(g.archs) * len(g.axis)
	n := nCurve
	if len(st.sat.cols) > 0 {
		n += len(g.archs)
	}
	pts := mapJobs(cfg, n, func(j int) point {
		i := n - 1 - j
		if i < nCurve {
			return st.curvePoint(cfg, g, i)
		}
		return st.bisection(cfg, g, g.archs[i-nCurve])
	})
	slices.Reverse(pts)
	return pts[:nCurve], pts[nCurve:]
}

// curvePoint runs row i of the curve table: one (architecture, axis)
// grid point.
func (st *study) curvePoint(cfg Config, g geometry, i int) point {
	a, x := g.archs[i/len(g.axis)], g.axis[i%len(g.axis)]
	p := point{N: g.n, Arch: a}
	load := x
	if st.fixedLoad > 0 {
		load = st.fixedLoad
	}
	tc := st.traffic(cfg, g, a, load, st.stride)
	if st.fixedLoad > 0 {
		// Everything but the rate is fixed — seed, edge count,
		// horizon, mean outage — so the outage sets are nested
		// across fault rates and shared across B.
		tc.Faults = fault.Generate(fault.GenConfig{
			Seed:       cfg.Seed + faultSeed,
			NumEdges:   tc.Net.G.NumEdges(),
			Horizon:    g.warmup + g.measure,
			Rate:       x,
			MeanOutage: g.meanOutage,
			Lanes:      1,
		})
		p.FaultRate, p.Outages = x, outages(tc.Faults)
	} else {
		tc.Seed += uint64(x * 1e6)
	}
	res, err := traffic.Run(tc)
	if err != nil {
		panic(fmt.Sprintf("%s: %s at %g: %v", st.id, a.label(), x, err))
	}
	p.Result = res
	return p
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

// bisection bisects architecture a's saturation rate. The probes of
// one search run sequentially inside its job.
func (st *study) bisection(cfg Config, g geometry, a arch) point {
	stride := st.satStride
	if stride == 0 {
		stride = st.stride
	}
	sr, err := traffic.SaturationRate(
		st.traffic(cfg, g, a, 1 /* overwritten per probe */, stride), g.search)
	if err != nil {
		panic(fmt.Sprintf("%s: saturation search %s: %v", st.id, a.label(), err))
	}
	return point{N: g.n, Arch: a, SatRate: sr.Rate, Probes: len(sr.Probes)}
}

// run executes the study and renders its tables. core.Run has already
// validated cfg, so a geometry error here is a bug.
func (st *study) run(cfg Config) []*stats.Table {
	g, err := st.geometry(cfg)
	if err != nil {
		panic(err)
	}
	curve, sat := st.measure(cfg, g)
	rows := make([]row, len(curve))
	for i, p := range curve {
		// A point that collapsed before any tracked message completed
		// has no latency sample; render "-" rather than a misleading 0.
		blank := p.TrackedDone == 0
		if st.latencyIfInjected {
			blank = p.Injected == 0
		}
		rows[i] = row{point: p, noLatency: blank}
	}
	tables := []*stats.Table{st.curve.render(rows)}
	if len(st.sat.cols) == 0 {
		return tables
	}

	rate := make(map[arch]float64, len(sat))
	for _, p := range sat {
		rate[p.Arch] = p.SatRate
	}
	rows = make([]row, len(sat))
	for i, p := range sat {
		// The baseline is the same router with the swept lane parameter
		// at 1: d = 1 where the study sweeps depth, B = 1 where it
		// sweeps only B.
		base := p.Arch
		if base.D > 0 {
			base.D = 1
		} else {
			base.B = 1
		}
		rows[i] = row{point: p, vsBase: stats.Ratio(p.SatRate, rate[base])}
	}
	return append(tables, st.sat.render(rows))
}

// registerStudy adds the study to the experiment registry.
func registerStudy(s study) *study {
	st := &s
	register(Experiment{ID: st.id, Title: st.title, Run: st.run, Validate: st.validate})
	return st
}

// row is a point at render time, with the quantities a cell cannot
// derive from the point alone.
type row struct {
	point
	noLatency bool    // latency cells render "-"
	vsBase    float64 // saturation rate over the baseline architecture's
}

// column is one table column: a header and how to fill its cell.
type column struct {
	header string
	cell   func(r row) any
}

// tableSpec is a table as data: its title and column list.
type tableSpec struct {
	title string
	cols  []column
}

func (ts tableSpec) render(rows []row) *stats.Table {
	headers := make([]string, len(ts.cols))
	for i, c := range ts.cols {
		headers[i] = c.header
	}
	t := stats.NewTable(ts.title, headers...)
	cells := make([]any, len(ts.cols))
	for _, r := range rows {
		for i, c := range ts.cols {
			cells[i] = c.cell(r)
		}
		t.AddRow(cells...)
	}
	return t
}

func latencyCol(header string, v func(r row) float64) column {
	return column{header, func(r row) any {
		if r.noLatency {
			return math.NaN()
		}
		return v(r)
	}}
}

// The column vocabulary every study's tables draw from.
var (
	colN    = column{"n", func(r row) any { return r.N }}
	colB    = column{"B", func(r row) any { return r.Arch.B }}
	colD    = column{"d", func(r row) any { return r.Arch.D }}
	colPool = column{"pool", func(r row) any {
		if r.Arch.Shared {
			return "shared"
		}
		return "static"
	}}
	colFaultRate = column{"fault rate", func(r row) any { return r.FaultRate }}
	colOutages   = column{"outages", func(r row) any { return r.Outages }}
	colOffered   = column{"offered", func(r row) any { return r.Offered }}
	colAccepted  = column{"accepted", func(r row) any { return r.Accepted }}
	colMessages  = column{"messages", func(r row) any { return r.Injected }}
	colAborted   = column{"aborted", func(r row) any { return r.Aborted }}
	colMeanLat   = latencyCol("mean latency", func(r row) float64 { return r.MeanLatency })
	colP50       = latencyCol("p50", func(r row) float64 { return r.P50 })
	colP95       = latencyCol("p95", func(r row) float64 { return r.P95 })
	colP99       = latencyCol("p99", func(r row) float64 { return r.P99 })
	colBacklog   = column{"backlog", func(r row) any { return r.Backlog }}
	colSaturated = column{"saturated", func(r row) any { return r.Saturated }}

	colSatRate       = column{"sat rate", func(r row) any { return r.SatRate }}
	colVsB1          = column{"vs B=1", func(r row) any { return r.vsBase }}
	colVsD1          = column{"vs d=1", func(r row) any { return r.vsBase }}
	colPerChannel    = column{"per channel", func(r row) any { return r.SatRate / float64(r.Arch.B) }}
	colPerFlitBuffer = column{"per flit buffer", func(r row) any { return r.SatRate / float64(r.Arch.B*r.Arch.D) }}
	colProbes        = column{"probes", func(r row) any { return r.Probes }}
)
