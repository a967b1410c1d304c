package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// resultFile is what the all-workloads mode writes and -compare reads:
// the environment and every workload's run, untraced and traced, at
// each of the file's seeds.
type resultFile struct {
	Record envRecord        `json:"env"`
	Runs   []workloadResult `json:"runs"`
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	blob, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(blob, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects one metric's values over a file's runs of a workload.
func (f *resultFile) values(workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the driver's own measure.
// Fewer than two values have no spread.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// compareFiles prints, per metric × workload, both files' medians, the
// relative difference (positive = B worse) and the bound, and returns
// 1 when B breaches a bound or an exact value differs. A metric whose
// run-to-run spread exceeds its bound is unresolved, not unchanged —
// unless every run of B reads better than every run of A.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	root, err := findRoot()
	if err != nil {
		return 0, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return 0, err
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A: %s  (commit %s, %s, calibration %.2f ms)\nB: %s  (commit %s, %s, calibration %.2f ms)\n\n",
		pathA, a.Record.GitCommit, a.Record.GoVersion, a.Record.CalibrationMS,
		pathB, b.Record.GitCommit, b.Record.GoVersion, b.Record.CalibrationMS)

	code := 0
	worse := func(item specItem, va, vb float64) float64 {
		if va == 0 {
			return 0
		}
		if item.Better == "higher" {
			return (va - vb) / va
		}
		return (vb - va) / va
	}
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %8s %7s %7s %6s  %s\n", "workload", "end-to-end", "A median", "B median", "B worse", "sprd A", "sprd B", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, item := range spec.EndToEnd {
			va, vb := a.values(wl.Name, item.Name, false), b.values(wl.Name, item.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			diff := worse(item, median(va), median(vb))
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case diff > item.Bound:
				verdict = "BREACH"
				code = 1
			case max(sa, sb) > item.Bound && !allBetter(item, va, vb):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-12s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, item.Name, median(va), median(vb), 100*diff, 100*sa, 100*sb, 100*item.Bound, verdict)
		}
	}

	// Results are simulated statistics: at equal seeds they repeat
	// exactly, on any machine.
	digests := map[string]string{}
	for _, r := range a.Runs {
		if !r.Traced {
			digests[fmt.Sprint(r.Workload, "/", r.Seed)] = r.Result
		}
	}
	for _, r := range b.Runs {
		if want, ok := digests[fmt.Sprint(r.Workload, "/", r.Seed)]; ok && !r.Traced && want != r.Result {
			fmt.Fprintf(w, "RESULT MISMATCH %s seed %d: A %s, B %s\n", r.Workload, r.Seed, want, r.Result)
			code = 1
		}
	}

	fmt.Fprintf(w, "\n%-14s %-36s %14s %14s %8s\n", "workload", "per-layer (no bound)", "A median", "B median", "B worse")
	for _, wl := range spec.Workloads {
		for _, item := range spec.PerLayer {
			va, vb := a.values(wl.Name, item.Name, true), b.values(wl.Name, item.Name, true)
			if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0) {
				continue // not measured on this workload
			}
			fmt.Fprintf(w, "%-14s %-36s %14.6g %14.6g %+7.1f%%\n", wl.Name, item.Name, median(va), median(vb), 100*worse(item, median(va), median(vb)))
		}
	}
	return code, nil
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(item specItem, a, b []float64) bool {
	if item.Better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
