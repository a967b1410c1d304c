package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark re-execs os.Executable() for every child phase, and under
// `go test` that is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// mayBeZero are the per-layer metrics whose correct value can be 0 on
// every workload: exact allocation counts, failures, and idle steps
// that a smoke-scale run may never have.
var mayBeZero = map[string]bool{
	"vcsim.allocs_per_step":        true,
	"traffic.allocs_per_run":       true,
	"wormholed.http_non2xx":        true,
	"vcsim.fastforward_step_ratio": true,
}

// TestSmoke runs all seven workloads, untraced and traced, at smoke
// scale through the same code path the driver uses, and checks the
// result against BENCHMARK.json's declarations.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and starts a daemon")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	declare := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n != len(workloads) || n > 8 {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d, the contract allows 8", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		declare(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q needs a one-line why of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	for _, item := range append(append([]specItem{}, spec.EndToEnd...), spec.PerLayer...) {
		declare(item.Name)
	}

	if err := buildBinaries(root); err != nil {
		t.Fatal(err)
	}
	env := runEnv{Root: root, Seed: defaultSeed + 1, Seconds: 1, Smoke: true, CalibrationMS: calibrate()}
	nonZero := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(env, w.name, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Errors)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, item := range want {
				m, ok := res.Metrics[item.Name]
				if !ok || m.Unit != item.Unit {
					t.Errorf("%s: metric %s printed as %+v, want unit %q", w.name, item.Name, m, item.Unit)
				}
				if m.Value != 0 {
					nonZero[item.Name] = true
				} else if !traced {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, item.Name)
				}
			}
			if traced {
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.name, err)
				}
			}
		}
	}
	for _, item := range spec.PerLayer {
		if !nonZero[item.Name] && !mayBeZero[item.Name] {
			t.Errorf("per-layer metric %s was 0 on every workload: nothing measures it", item.Name)
		}
	}
	// Every daemon was reaped by its child (stop waits for it) and took
	// its temporary state directory with it.
	if left, _ := filepath.Glob(filepath.Join(env.buildDir(), "wormholed-*")); len(left) > 0 {
		t.Errorf("daemon state left behind: %v", left)
	}
}
