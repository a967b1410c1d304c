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

// injector is one endpoint's injection-process state. Each endpoint owns
// an independent pre-split rng child, so the arrival stream at endpoint i
// depends only on (seed, i) — never on other endpoints or on execution
// order — which is what keeps whole-table results byte-identical across
// worker counts.
type injector struct {
	r *rng.Source

	// Poisson: absolute time of the next arrival.
	next float64

	// OnOff: current state and the per-step probabilities.
	on       bool
	pInject  float64 // injection probability while ON
	pExitOn  float64 // ON → OFF transition probability
	pExitOff float64 // OFF → ON transition probability
}

// expDraw returns an exponential variate with mean 1/rate.
//
//wormvet:nonalloc
func expDraw(r *rng.Source, rate float64) float64 {
	return -math.Log(1-r.Float64()) / rate
}

func newInjector(cfg *Config, r *rng.Source) injector {
	in := injector{r: r}
	switch cfg.Process {
	case Poisson:
		in.next = expDraw(r, cfg.Rate)
	case OnOff:
		on, off := cfg.onOffMeans()
		in.pInject = cfg.Rate * (on + off) / on
		in.pExitOn = 1 / on
		in.pExitOff = 1 / off
		// Start in the stationary distribution so the warmup window does
		// not have to absorb a cold-start bias on top of filling the
		// network.
		in.on = r.Float64() < on/(on+off)
	}
	return in
}

// arrivals returns how many messages this endpoint injects at step t.
// Calls must be made once per step in increasing t order.
//
//wormvet:hotpath
func (in *injector) arrivals(cfg *Config, t int) int {
	switch cfg.Process {
	case Bernoulli:
		if in.r.Float64() < cfg.Rate {
			return 1
		}
		return 0
	case Poisson:
		k := 0
		for in.next < float64(t+1) {
			k++
			in.next += expDraw(in.r, cfg.Rate)
		}
		return k
	case OnOff:
		k := 0
		if in.on && in.r.Float64() < in.pInject {
			k = 1
		}
		// State transition applies after this step's arrival draw.
		if in.on {
			if in.r.Float64() < in.pExitOn {
				in.on = false
			}
		} else if in.r.Float64() < in.pExitOff {
			in.on = true
		}
		return k
	}
	panic(fmt.Sprintf("traffic: unknown process %d", cfg.Process))
}
