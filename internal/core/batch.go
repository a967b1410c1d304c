package core

import (
	"slices"

	"wormhole/internal/lowerbound"
	"wormhole/internal/rng"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
)

// This file is the experiment engine. Every experiment but F2 is one
// shape: a list of cells — workloads, network sizes, router
// architectures, or the variants an ablation compares — each crossed
// with a B or a lane-depth axis and repeated over trials; one job per
// (cell, axis value, trial) measures named values; a table row per
// (cell, axis value) shows the cell, the values (the mean over the
// trials, or one trial's) and what is derived from them: the speedup
// against the cell's first row, the ratio a bound predicts, speedup/B.
// A declaration (batches.go, studies.go) is data plus its measure;
// everything that executes lives here, once: the cross with the axis,
// the trial count, the experiment's one mapJobs fan-out and the fold
// over trials. Every job returns vals, so every job's result
// checkpoints.

// vals is what one job measures: named numbers (a bool is 0 or 1). It
// is the one result type of every job, and a float64 survives JSON
// exactly, so checkpoint.go stores every job. A value a job leaves out
// is NaN in the mean, which a table renders as "-".
type vals map[string]float64

// cell is one row of a table before it is measured: what its jobs read
// and its leading columns show. A declaration sets the fields it uses.
type cell struct {
	label string  // the row's name: a policy, mode, selector, discipline or pool
	B     int     // virtual channels; the engine sets it when it crosses a B axis
	d     int     // lane depth; the engine sets it when it crosses a depth axis
	n, q  int     // network inputs, and messages (or worms) per input
	l     int     // message length
	mode  int     // which of the declaration's variants the row runs
	rate  float64 // offered messages per input per flit step
	fault float64 // lane-fault rate
	// p is the workload, built before the fan-out; jobs only read it.
	p *Problem
	// adv is the adversarial construction a T2 row builds and routes.
	adv lowerbound.Params
	// r is the job's own source, split from the seed before the fan-out
	// so its draws do not depend on which worker runs it.
	r *rng.Source
}

// batch declares one table.
type batch struct {
	title string
	// cells lists the table's cells in table order.
	cells func(cfg Config) []cell
	// bs, quickBs is the B axis crossed with every cell (fastest); ds,
	// quickDs, where set, is a lane-depth axis crossed instead. A
	// declaration with neither gives each cell its own B and depth.
	bs, quickBs []int
	ds, quickDs []int
	// trials, quickTrials are the default trial counts (Config.Trials
	// overrides them); 0 means one trial, whatever Config.Trials says.
	trials, quickTrials int
	// measure runs trial t of cell c.
	measure func(cfg Config, c cell, t int) vals
	// cols is the table's column list, in order.
	cols []batchCol
	// validate, when non-nil on an experiment's first table, rejects a
	// Config the experiment cannot run (a bad -scale).
	validate func(Config) error
}

// batchRow is a measured row: its cell, what each trial measured, and
// the row of its cell at the axis's first value, which the derived
// columns divide by.
type batchRow struct {
	cell
	trials []vals
	first  *batchRow
}

// mean is name averaged over the trials that measured it.
func (r *batchRow) mean(name string) float64 {
	var sum float64
	n := 0
	for _, v := range r.trials {
		if x, ok := v[name]; ok {
			sum += x
			n++
		}
	}
	return sum / float64(n)
}

// last is name from the last trial that measured it.
func (r *batchRow) last(name string) float64 {
	var x float64
	for _, v := range r.trials {
		if y, ok := v[name]; ok {
			x = y
		}
	}
	return x
}

// rows lays the table out: it crosses the cells with the axis and gives
// each row a slot per trial.
func (b *batch) rows(cfg Config) []*batchRow {
	bs, ds, trials := pick(cfg, b.bs, b.quickBs), pick(cfg, b.ds, b.quickDs), 1
	if b.trials > 0 {
		trials = cfg.trials(b.trials, b.quickTrials)
	}
	var rows []*batchRow
	add := func(c cell) { rows = append(rows, &batchRow{cell: c, trials: make([]vals, trials)}) }
	for _, c := range b.cells(cfg) {
		first := len(rows)
		switch {
		case ds != nil:
			for _, d := range ds {
				c.d = d
				add(c)
			}
		case bs != nil:
			for _, B := range bs {
				c.B = B
				add(c)
			}
		default:
			add(c)
		}
		for _, r := range rows[first:] {
			r.first = rows[first]
		}
	}
	return rows
}

// measure lays out the tables and runs every (row, trial) job of all of
// them as one fan-out, returning each table's measured rows. The jobs
// are issued from the last one back, so the costliest start first: the
// tables grow B, depth and network size along their rows, and a
// saturation table's bisection (last in its experiment) is a dozen runs
// where a curve point is one. In table order the longest job would
// start last and run alone.
func measure(cfg Config, tables []*batch) [][]*batchRow {
	type job struct {
		b *batch
		r *batchRow
		t int
	}
	var jobs []job
	rows := make([][]*batchRow, len(tables))
	for i, b := range tables {
		rows[i] = b.rows(cfg)
		for _, r := range rows[i] {
			for t := range r.trials {
				jobs = append(jobs, job{b, r, t})
			}
		}
	}
	slices.Reverse(jobs)
	out := mapJobs(cfg, len(jobs), func(j int) vals {
		return jobs[j].b.measure(cfg, jobs[j].r.cell, jobs[j].t)
	})
	for j, v := range out {
		jobs[j].r.trials[jobs[j].t] = v
	}
	return rows
}

func (b *batch) render(rows []*batchRow) *stats.Table {
	headers := make([]string, len(b.cols))
	for i, c := range b.cols {
		headers[i] = c.header
	}
	t := stats.NewTable(b.title, headers...)
	cells := make([]any, len(b.cols))
	for _, r := range rows {
		for i, c := range b.cols {
			cells[i] = c.cell(r)
		}
		t.AddRow(cells...)
	}
	return t
}

// registerBatch adds an experiment whose tables are the given batches.
func registerBatch(id, title string, tables ...*batch) {
	register(Experiment{ID: id, Title: title, Validate: tables[0].validate,
		Run: func(cfg Config) []*stats.Table {
			out := make([]*stats.Table, len(tables))
			for i, rows := range measure(cfg, tables) {
				out[i] = tables[i].render(rows)
			}
			return out
		}})
}

// workloads builds one cell per problem, in parallel, before the
// fan-out. Building a workload is not a measured job: it runs outside
// mapJobs, so it is never checkpointed and a resumed run builds it
// again.
func workloads(cfg Config, builders ...func() *Problem) []cell {
	cells := make([]cell, len(builders))
	forEachJob(cfg.workers(), len(builders), func(i int) { cells[i] = cell{p: builders[i]()} })
	return cells
}

// batchCol is one table column: a header and how to fill its cell from
// a measured row.
type batchCol struct {
	header string
	cell   func(r *batchRow) any
}

// The column vocabulary of the tables. A measured value's column
// is headed by the value's name: count renders it as an int, num as a
// float, flag as a bool. The derived columns divide by the cell's row
// at the axis's first value.
var (
	colCellB    = batchCol{"B", func(r *batchRow) any { return r.B }}
	colCellD    = batchCol{"d", func(r *batchRow) any { return r.d }}
	colCellN    = batchCol{"n", func(r *batchRow) any { return r.n }}
	colCellQ    = batchCol{"q", func(r *batchRow) any { return r.q }}
	colLogN     = batchCol{"L", func(r *batchRow) any { return topology.Log2(r.n) }}
	colProbC    = batchCol{"C", func(r *batchRow) any { return r.p.C }}
	colProbD    = batchCol{"D", func(r *batchRow) any { return r.p.D }}
	colProbL    = batchCol{"L", func(r *batchRow) any { return r.p.L }}
	colWorkload = batchCol{"workload", func(r *batchRow) any { return r.p.Label }}
)

// colLabel heads the cells' labels.
func colLabel(header string) batchCol {
	return batchCol{header, func(r *batchRow) any { return r.label }}
}

func count(name string) batchCol {
	return batchCol{name, func(r *batchRow) any { return int(r.mean(name)) }}
}

// lastCount is name from the last trial that measured it, as an int.
func lastCount(name string) batchCol {
	return batchCol{name, func(r *batchRow) any { return int(r.last(name)) }}
}

func num(name string) batchCol {
	return batchCol{name, func(r *batchRow) any { return r.mean(name) }}
}

func flag(name string) batchCol {
	return batchCol{name, func(r *batchRow) any { return r.mean(name) != 0 }}
}

// b2f is a measured bool as a value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ratio is the row's value num over its value den.
func ratio(header, num, den string) batchCol {
	return batchCol{header, func(r *batchRow) any { return stats.Ratio(r.mean(num), r.mean(den)) }}
}

// speedup is name at the cell's first B over name at the row's B.
func speedup(header, name string) batchCol {
	return batchCol{header, func(r *batchRow) any { return stats.Ratio(r.first.mean(name), r.mean(name)) }}
}

// gain is name at the row's B or depth over name at the cell's first.
func gain(header, name string) batchCol {
	return batchCol{header, func(r *batchRow) any { return stats.Ratio(r.mean(name), r.first.mean(name)) }}
}

// perB is speedup per virtual channel: above 1, the benefit of B is
// superlinear.
func perB(header, name string) batchCol {
	return batchCol{header, func(r *batchRow) any {
		return stats.Ratio(r.first.mean(name), r.mean(name)) / float64(r.B)
	}}
}

// shape is a closed form of the row's cell and B — a bound, or a
// predicted shape; predicted is the speedup a bound predicts, its value
// at the cell's first B over its value at the row's.
func shape(header string, f func(r *batchRow) float64) batchCol {
	return batchCol{header, func(r *batchRow) any { return f(r) }}
}

func predicted(header string, f func(r *batchRow) float64) batchCol {
	return batchCol{header, func(r *batchRow) any { return stats.Ratio(f(r.first), f(r)) }}
}
