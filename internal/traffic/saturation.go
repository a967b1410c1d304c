package traffic

import "fmt"

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

// SaturationRate bisects the offered load to locate the network's
// saturation knee: the boundary between rates the network sustains and
// rates where accepted throughput falls behind offered. The search is
// fully deterministic — probe i runs with a seed derived from
// (cfg.Seed, i) — so results are reproducible and independent of any
// surrounding parallelism.
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

	// One Runner serves the whole search: every probe replays over the
	// same Sim, worm chunks, arenas and injectors, re-targeted to its rate
	// and seed, instead of building and discarding them a dozen times.
	// Results are those of a fresh Run per probe: checkRunner's replay
	// property holds a retargeted Runner to a fresh one, and
	// TestSaturationRateMatchesFreshRuns holds each probe to its seed.
	first := cfg
	first.Rate = hi
	runner, err := NewRunner(first)
	if err != nil {
		return SearchResult{}, err
	}
	var out SearchResult
	probe := func(rate float64) (bool, error) {
		// Decorrelate probes while keeping them a pure function of the
		// experiment seed and the probe index.
		if err := runner.retarget(rate, cfg.Seed+uint64(len(out.Probes))*0x9E3779B97F4A7C15); err != nil {
			return false, err
		}
		r, err := runner.Run()
		if err != nil {
			return false, err
		}
		out.Probes = append(out.Probes, Probe{
			Rate: rate, Accepted: r.Accepted, MeanLat: r.MeanLatency, Saturated: r.Saturated,
		})
		return r.Saturated, nil
	}

	// If the network sustains the full upper bracket, the knee is at or
	// above Hi; report Hi rather than bisecting inside a sustained range.
	sat, err := probe(hi)
	if err != nil {
		return SearchResult{}, err
	}
	if !sat {
		out.Rate = hi
		return out, nil
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		sat, err := probe(mid)
		if err != nil {
			return SearchResult{}, err
		}
		if sat {
			hi = mid
		} else {
			lo = mid
		}
	}
	out.Rate = lo
	return out, nil
}
