// Package stats supplies the small statistical toolkit the experiment
// harness needs: percentiles, guarded ratios, compact float formatting,
// and aligned text / CSV tables for printing paper-style results.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Ratio returns a/b, guarding against division by zero with NaN.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// FormatFloat renders a float compactly for tables: integers without
// decimals, large values with thousands grouping left off (plain), small
// values with 3 significant digits.
func FormatFloat(x float64) string {
	switch {
	case math.IsNaN(x):
		return "-"
	case x == math.Trunc(x) && math.Abs(x) < 1e15:
		return fmt.Sprintf("%.0f", x)
	case math.Abs(x) >= 100:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3g", x)
	}
}
