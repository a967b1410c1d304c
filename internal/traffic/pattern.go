package traffic

import (
	"fmt"
	"math/bits"

	"wormhole/internal/enum"
	"wormhole/internal/rng"
)

// Pattern selects the spatial destination pattern.
type Pattern int8

const (
	// Uniform sends each message to a uniformly random endpoint.
	Uniform Pattern = iota
	// Transpose sends endpoint s to the endpoint whose index is s's k-bit
	// representation rotated by k/2 — the matrix-transpose permutation,
	// a classic adversarial pattern for dimension-ordered and bit-fixing
	// routers. Requires a power-of-two endpoint count.
	Transpose
	// BitReverse sends endpoint s to the endpoint with s's k bits
	// reversed. Requires a power-of-two endpoint count.
	BitReverse
	// Hotspot sends each message with probability HotspotFraction to one
	// of HotspotCount hot endpoints (spread evenly over the index space)
	// and uniformly otherwise.
	Hotspot
)

func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case BitReverse:
		return "bit-reverse"
	case Hotspot:
		return "hotspot"
	}
	return fmt.Sprintf("pattern(%d)", int8(p))
}

// MarshalText and UnmarshalText spell a Pattern as its String() form in
// JSON; see enum.Parse for what is accepted.
func (p Pattern) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *Pattern) UnmarshalText(text []byte) (err error) {
	*p, err = enum.Parse("pattern", string(text), Hotspot)
	return err
}

// needsPow2 reports whether the pattern permutes endpoint bit strings.
func (p Pattern) needsPow2() bool { return p == Transpose || p == BitReverse }

// dest draws the destination endpoint for one message from src, using the
// endpoint's own random source for the stochastic patterns.
//
//wormvet:hotpath
func (c *Config) dest(src int, r *rng.Source) int {
	n := c.Net.Endpoints
	switch c.Pattern {
	case Uniform:
		return r.Intn(n)
	case Transpose:
		k := bits.Len(uint(n)) - 1
		rot := k / 2
		if rot == 0 {
			return src
		}
		return (src<<rot | src>>(k-rot)) & (n - 1)
	case BitReverse:
		k := bits.Len(uint(n)) - 1
		return int(bits.Reverse64(uint64(src)) >> (64 - k))
	case Hotspot:
		count, frac := c.hotspotParams()
		if r.Float64() < frac {
			return r.Intn(count) * n / count
		}
		return r.Intn(n)
	}
	panic(fmt.Sprintf("traffic: unknown pattern %d", c.Pattern))
}
