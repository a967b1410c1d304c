package traffic

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"wormhole/internal/telemetry"
)

// SearchOptions tunes the saturation-rate bisection.
type SearchOptions struct {
	// Hi is the upper bracket (default: the process's MaxRate); the lower
	// one is 0, trivially sustainable.
	Hi float64
	// Iters is the number of bisection steps (default 10). Each halves
	// the bracket, so the knee is located to Hi/2^Iters.
	Iters int
}

// Probe records one bisection probe.
type Probe struct {
	Rate      float64
	Accepted  float64
	MeanLat   float64
	Saturated bool
}

// SearchResult reports a saturation search.
type SearchResult struct {
	// Rate is the saturation rate: the largest probed offered load the
	// network sustained (accepted ≥ 95% of offered). It is 0 when even
	// the first probe saturated, and Hi when the network sustained the
	// full upper bracket.
	Rate float64
	// Probes lists every probe in execution order.
	Probes []Probe
}

// probeSeedStride derives probe k's seed: cfg.Seed + k·probeSeedStride.
const probeSeedStride = 0x9E3779B97F4A7C15

// errAbandoned is what a speculative probe's hook returns once the search
// has taken the other branch.
var errAbandoned = errors.New("traffic: speculative probe abandoned")

// SaturationRate bisects the offered load to locate the network's
// saturation knee: the boundary between rates the network sustains and
// rates where accepted throughput falls behind offered. The search is
// fully deterministic — probe k runs with the seed cfg.Seed +
// k·0x9E3779B97F4A7C15 — so its result is that of a fresh Run per probe,
// reproducible, and independent of any surrounding parallelism and of
// GOMAXPROCS.
//
// With more than one P, once a probe has been sustained, the search runs
// the probe it takes next if the one in flight saturates — the lower
// child of the bracket — on a second Runner and goroutine at the same
// time. If the probe in flight saturates, the search adopts that child's
// result and skips a level; if not, it abandons the child. Neither
// changes what the search returns: the same probes run, in the same
// order, each with the same seed. Probes above the knee are not
// speculated on before a probe has been sustained: each fills
// MaxBacklog, and two at once would hold two full backlogs.
// A search with a Trace or a Publisher runs serially, so they see every
// probe in order.
//
// cfg.OnStep is called only for the probes run on the search's own
// Runner, and only from the goroutine that called SaturationRate; an
// adopted probe is not observed. An OnStep error ends the search and is
// returned. cfg.Metrics receives each probe's counters from a registry
// of the probe's own, merged (Metrics.Merge) when the probe joins the
// result, so it holds the Merge of the Runs of SearchResult.Probes.
//
// cfg.Rate is ignored; cfg.MaxBacklog should be set (saturated probes
// stop as soon as the backlog proves unsustainable instead of simulating
// the whole collapse).
func SaturationRate(cfg Config, opts SearchOptions) (SearchResult, error) {
	lo, hi := 0.0, opts.Hi
	if !finite(hi) {
		return SearchResult{}, fmt.Errorf("traffic: saturation bracket [0, %g] is not finite", hi)
	}
	if max := cfg.MaxRate(); hi <= 0 || hi > max {
		hi = max
	}
	iters := opts.Iters
	if iters <= 0 {
		iters = 10
	}

	// One Runner serves the whole search, and one more its speculative
	// probes: every probe replays over the same Sim, worm chunks, arenas
	// and injectors, re-targeted to its rate and seed, instead of
	// building and discarding them a dozen times.
	// Results are those of a fresh Run per probe: checkRunner's replay
	// property holds a retargeted Runner to a fresh one, and
	// TestSaturationRateMatchesFreshRuns holds each probe to its seed.
	first := cfg
	first.Rate = hi
	own, err := newProbeRunner(first)
	if err != nil {
		return SearchResult{}, err
	}
	var out SearchResult
	// keep records a probe r ran in the result and folds its counters in.
	keep := func(r *Runner, pr Probe) {
		out.Probes = append(out.Probes, pr)
		if cfg.Metrics != nil {
			cfg.Metrics.Merge(r.cfg.Metrics)
		}
	}
	probe := func(rate float64) (Probe, error) {
		k := uint64(len(out.Probes))
		pr, err := own.probe(rate, cfg.Seed+k*probeSeedStride)
		if err == nil {
			keep(own, pr)
		}
		return pr, err
	}

	// If the network sustains the full upper bracket, the knee is at or
	// above Hi; report Hi rather than bisecting inside a sustained range.
	pr, err := probe(hi)
	if err != nil {
		return SearchResult{}, err
	}
	if !pr.Saturated {
		out.Rate = hi
		return out, nil
	}
	speculate := runtime.GOMAXPROCS(0) > 1 && cfg.Trace == nil && cfg.Publish == nil
	var spec *speculator
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		ahead := speculate && lo > 0 && i+1 < iters
		if ahead {
			if spec == nil {
				if spec, err = newSpeculator(first); err != nil {
					return SearchResult{}, err
				}
			}
			spec.start((lo+mid)/2, cfg.Seed+uint64(len(out.Probes)+1)*probeSeedStride)
		}
		pr, err := probe(mid)
		if ahead && (err != nil || !pr.Saturated) {
			spec.abandon()
		}
		if err != nil {
			return SearchResult{}, err
		}
		if !pr.Saturated {
			lo = mid
			continue
		}
		hi = mid
		if !ahead {
			continue
		}
		child, err := spec.wait()
		if err != nil {
			return SearchResult{}, err
		}
		keep(spec.runner, child)
		i++
		if child.Saturated {
			hi = child.Rate
		} else {
			lo = child.Rate
		}
	}
	out.Rate = lo
	return out, nil
}

// newProbeRunner builds a Runner for a search's probes. When the search
// collects metrics, the Runner writes a registry of its own, reset before
// each probe: a registry carried across probes would integrate each
// edge's occupancy from where the last probe left it, while Reset
// restarts the clock at 0.
func newProbeRunner(cfg Config) (*Runner, error) {
	if cfg.Metrics != nil {
		cfg.Metrics = telemetry.NewMetrics()
	}
	return NewRunner(cfg)
}

// probe runs one probe: a pure function of its rate and seed.
func (r *Runner) probe(rate float64, seed uint64) (Probe, error) {
	if err := r.retarget(rate, seed); err != nil {
		return Probe{}, err
	}
	if m := r.cfg.Metrics; m != nil {
		m.Reset()
	}
	res, err := r.Run()
	if err != nil {
		return Probe{}, err
	}
	return Probe{Rate: rate, Accepted: res.Accepted, MeanLat: res.MeanLatency, Saturated: res.Saturated}, nil
}

// speculator runs one probe ahead of the search on a goroutine of its
// own. Its Runner's OnStep hook is private: it ends the probe with
// errAbandoned once the search has abandoned it.
type speculator struct {
	runner    *Runner
	abandoned atomic.Bool
	done      chan speculated
}

type speculated struct {
	probe Probe
	err   error
}

func newSpeculator(cfg Config) (*speculator, error) {
	s := &speculator{done: make(chan speculated, 1)}
	cfg.OnStep = func(int) error {
		if s.abandoned.Load() {
			return errAbandoned
		}
		return nil
	}
	var err error
	if s.runner, err = newProbeRunner(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *speculator) start(rate float64, seed uint64) {
	s.abandoned.Store(false)
	go func() {
		pr, err := s.runner.probe(rate, seed)
		s.done <- speculated{pr, err}
	}()
}

// wait returns the probe's result once it has finished.
func (s *speculator) wait() (Probe, error) {
	r := <-s.done
	return r.probe, r.err
}

// abandon ends the probe in flight and waits for its goroutine.
func (s *speculator) abandon() {
	s.abandoned.Store(true)
	<-s.done
}
