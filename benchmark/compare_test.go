package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The spread must be the driver's: the inter-quartile distance of
// Python's statistics.quantiles(values, n=4) over the median.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 10, 2, 8, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	if _, err := findRoot(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, wall []float64, digest string) string {
		var f resultFile
		for i, v := range wall {
			f.Runs = append(f.Runs, workloadResult{
				Workload: "knee-rigid", Seed: uint64(17 + i), Result: digest,
				Metrics: map[string]metric{"wall_s": {v, "s"}},
			})
		}
		blob, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	noisy := []float64{0.7, 1.3, 0.85, 1.15, 1.0, 0.55, 1.45, 1.0, 0.8, 1.2}
	scale := func(v []float64, k float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * k
		}
		return out
	}
	base := write("a.json", steady, "d1")
	for _, tc := range []struct {
		name    string
		b       string
		code    int
		verdict string
	}{
		{"same", write("same.json", scale(steady, 1.03), "d1"), 0, " ok"},
		{"slower", write("slow.json", scale(steady, 1.3), "d1"), 1, "BREACH"},
		{"noisy", write("noisy.json", noisy, "d1"), 0, "unresolved"},
		{"clearly faster despite noise", write("fast.json", scale(noisy, 0.3), "d1"), 0, " ok"},
		{"results changed", write("changed.json", steady, "d2"), 1, "RESULT MISMATCH"},
	} {
		var out bytes.Buffer
		code, err := compareFiles(&out, base, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}
}
