package traffic

import (
	"fmt"
	"math"

	"wormhole/internal/enum"
	"wormhole/internal/rng"
)

// Process selects the temporal injection process at each endpoint.
type Process int8

const (
	// Bernoulli injects at most one message per endpoint per step, with
	// probability Rate (so Rate must be ≤ 1).
	Bernoulli Process = iota
	// Poisson injects with exponential interarrival times of mean 1/Rate;
	// several messages can arrive at one endpoint in one step.
	Poisson
	// OnOff is a bursty two-state (Markov-modulated) process: an endpoint
	// alternates between ON bursts of geometric mean length OnMean and
	// idle OFF periods of mean length OffMean, injecting Bernoulli
	// arrivals only while ON, scaled so the long-run rate is Rate.
	OnOff
)

func (p Process) String() string {
	switch p {
	case Bernoulli:
		return "bernoulli"
	case Poisson:
		return "poisson"
	case OnOff:
		return "on-off"
	}
	return fmt.Sprintf("process(%d)", int8(p))
}

// MarshalText and UnmarshalText spell a Process as its String() form in
// JSON; see enum.Parse for what is accepted.
func (p Process) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *Process) UnmarshalText(text []byte) (err error) {
	*p, err = enum.Parse("process", string(text), OnOff)
	return err
}

// injector is one endpoint's evolving injection-process state. The
// endpoint's rng source lives beside it at the same index
// (Runner.sources); each endpoint owns an independent pre-split rng
// child, so the arrival stream at endpoint i depends only on (seed, i) —
// never on other endpoints or on execution order — which is what keeps
// whole-table results byte-identical across worker counts.
type injector struct {
	// Poisson: absolute time of the next arrival, which is also the
	// earliest step the endpoint can fire. The per-step processes keep 0
	// here, so they are due on every step.
	next float64
	// OnOff: whether the endpoint is in an ON burst.
	on bool
}

// processParams are what every endpoint's injection process shares,
// derived from Config.
type processParams struct {
	// OnOff: the injection probability while ON, and the ON → OFF and
	// OFF → ON transition probabilities.
	pInject, pExitOn, pExitOff float64
	// quiet[1] and quiet[0] are how many rng outputs an endpoint draws
	// in a quiet step — no arrival, and no change to its process state —
	// while ON and otherwise: once for Bernoulli, once more while ON for
	// OnOff. A Poisson endpoint draws nothing while it is not due and
	// always has an arrival when it is, so its quiet count is 0.
	quiet [2]uint64
}

func (c *Config) processParams() processParams {
	var pp processParams
	switch c.Process {
	case Bernoulli:
		pp.quiet = [2]uint64{1, 1}
	case OnOff:
		on, off := c.onOffMeans()
		pp.pInject, pp.pExitOn, pp.pExitOff = c.Rate*(on+off)/on, 1/on, 1/off
		pp.quiet = [2]uint64{1, 2}
	}
	return pp
}

// quietDraws is how many rng outputs the endpoint whose state is in
// consumes in a quiet step: one in which arrivals returns 0 and leaves
// in.on as it was (next then cannot have moved either: only a Poisson
// arrival moves it). The arrival producer records only the endpoints
// whose step was not quiet, and the stepper keeps every source rewound by
// this count a step (Runner.sources), so the count must be exact;
// TestQuietDraws holds arrivals to it.
//
//wormvet:nonalloc
func (pp *processParams) quietDraws(in *injector) uint64 {
	if in.on {
		return pp.quiet[1]
	}
	return pp.quiet[0]
}

// expDraw returns an exponential variate with mean 1/rate.
//
//wormvet:nonalloc
func expDraw(r *rng.Source, rate float64) float64 {
	return -math.Log(1-r.Float64()) / rate
}

func newInjector(cfg *Config, r *rng.Source) injector {
	var in injector
	switch cfg.Process {
	case Poisson:
		in.next = expDraw(r, cfg.Rate)
	case OnOff:
		on, off := cfg.onOffMeans()
		// Start in the stationary distribution so the warmup window does
		// not have to absorb a cold-start bias on top of filling the
		// network.
		in.on = r.Float64() < on/(on+off)
	}
	return in
}

// arrivals returns how many messages the endpoint whose state is in and
// whose source is r injects at step t. Calls must be made once per step
// in increasing t order.
//
//wormvet:hotpath
func (in *injector) arrivals(cfg *Config, p *processParams, r *rng.Source, t int) int {
	switch cfg.Process {
	case Bernoulli:
		if r.Float64() < cfg.Rate {
			return 1
		}
		return 0
	case Poisson:
		k := 0
		for in.next < float64(t+1) {
			k++
			in.next += expDraw(r, cfg.Rate)
		}
		return k
	case OnOff:
		k := 0
		if in.on && r.Float64() < p.pInject {
			k = 1
		}
		// State transition applies after this step's arrival draw.
		if in.on {
			if r.Float64() < p.pExitOn {
				in.on = false
			}
		} else if r.Float64() < p.pExitOff {
			in.on = true
		}
		return k
	}
	panic(fmt.Sprintf("traffic: unknown process %d", cfg.Process))
}
