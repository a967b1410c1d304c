package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wormhole/internal/stats"
	"wormhole/internal/traffic"
)

var openLoopStudies = []*study{t12, t13, t14, t15, t16}

// measure resolves cfg's geometry and runs the study's fan-out,
// checking what every study promises of it: a curve point per
// (architecture, axis value), in grid order, each with traffic actually
// flowing, and — where the study bisects — one saturation row per
// architecture, in grid order.
func measure(t *testing.T, st *study, cfg Config) (g geometry, curve, sat []point) {
	t.Helper()
	g, err := st.geometry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve, sat = st.measure(cfg, g)
	if want := len(g.archs) * len(g.axis); len(curve) != want {
		t.Fatalf("%s: %d curve points, want %d", st.id, len(curve), want)
	}
	for i, p := range curve {
		if a := g.archs[i/len(g.axis)]; p.Arch != a || p.N != g.n {
			t.Errorf("%s point %d: ran n=%d %s, want n=%d %s", st.id, i, p.N, p.Arch.label(), g.n, a.label())
		}
		if p.Injected == 0 {
			t.Errorf("%s: %s at %g: no messages injected", st.id, p.Arch.label(), g.axis[i%len(g.axis)])
		}
	}
	if len(st.sat.cols) == 0 {
		if len(sat) != 0 {
			t.Fatalf("%s: %d saturation rows from a study without a bisection", st.id, len(sat))
		}
		return g, curve, sat
	}
	if len(sat) != len(g.archs) {
		t.Fatalf("%s: %d saturation rows, want %d", st.id, len(sat), len(g.archs))
	}
	for i, p := range sat {
		if p.Arch != g.archs[i] || p.N != g.n || p.Probes == 0 {
			t.Errorf("%s saturation row %d: n=%d %s after %d probes, want n=%d %s", st.id, i, p.N, p.Arch.label(), p.Probes, g.n, g.archs[i].label())
		}
	}
	return g, curve, sat
}

// checkMonotoneInDepth is the T13/T14 acceptance criterion: at fixed B
// and pool mode the saturation rate is non-decreasing in lane depth —
// extra lane storage can only absorb more backlog. The depths of one
// (B, pool) family share arrival sample paths (depth never enters the
// seed), so this is a like-for-like comparison, not a statistical one.
func checkMonotoneInDepth(t *testing.T, sat []point) {
	t.Helper()
	last := map[arch]point{}
	for _, r := range sat {
		if r.SatRate <= 0 {
			t.Errorf("%s: saturation rate %.4f not positive", r.Arch.label(), r.SatRate)
		}
		family := arch{B: r.Arch.B, Shared: r.Arch.Shared}
		if prev, ok := last[family]; ok {
			if r.Arch.D <= prev.Arch.D {
				t.Fatalf("%s: depths out of order after d=%d", r.Arch.label(), prev.Arch.D)
			}
			if r.SatRate < prev.SatRate {
				t.Errorf("saturation rate decreasing in depth: %s → %g, %s → %g",
					prev.Arch.label(), prev.SatRate, r.Arch.label(), r.SatRate)
			}
		}
		last[family] = r
	}
}

// checkWorkersByteIdentity pins the harness determinism contract on one
// study with the exact worker counts the open-loop issues named:
// rendered tables byte-identical for Workers ∈ {1, 4, 8}.
// (TestParallelDeterminism also covers the studies via the registry;
// these exist so a registry refactor cannot silently drop the contract.)
func checkWorkersByteIdentity(t *testing.T, st *study) {
	t.Helper()
	render := func(workers int) string {
		tables, err := Run(context.Background(), st.id, Config{Seed: 42, Quick: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tab := range tables {
			sb.WriteString(tab.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	base := render(1)
	for _, w := range []int{4, 8} {
		if got := render(w); got != base {
			t.Errorf("tables differ between Workers=1 and Workers=%d:\n--- 1 ---\n%s\n--- %d ---\n%s",
				w, base, w, got)
		}
	}
	if !strings.Contains(base, "sat rate") {
		t.Fatalf("saturation table missing from %s output", st.id)
	}
}

// TestStudyJobLayout pins the study engine's schedule: each of T12–T16
// issues exactly one fan-out, and it hands out the costliest jobs first
// — the bisections, last architecture first, then the curve from its
// last row up. One worker runs the jobs in the order they are handed
// out, so a checkpoint store is asked for them in that order.
func TestStudyJobLayout(t *testing.T) {
	for _, st := range openLoopStudies {
		cfg := Config{Seed: 42, Quick: true, Workers: 1}
		g, err := st.geometry(cfg)
		if err != nil {
			t.Fatal(err)
		}
		store := newMemStore()
		cfg.Checkpoint = &Checkpoint{Store: store}
		if _, err := Run(context.Background(), st.id, cfg); err != nil {
			t.Fatal(err)
		}
		nCurve, nSat := len(g.archs)*len(g.axis), 0
		if len(st.sat.cols) > 0 {
			nSat = len(g.archs)
		}
		n := nCurve + nSat
		cp := (&Checkpoint{}).scoped(st.id, cfg)
		want := make([]string, n)
		for j := range want {
			want[j] = cp.key(0, n, j)
		}
		if !reflect.DeepEqual(store.loaded, want) {
			t.Errorf("%s: jobs asked for as\n%v\nwant one fan-out of %d, in order:\n%v", st.id, store.loaded, n, want)
			continue
		}
		for j, key := range want {
			blob, ok := store.blobs[key]
			if !ok {
				if j < nSat {
					t.Errorf("%s job %d: bisection result not stored", st.id, j)
				}
				continue // a curve point JSON cannot carry (a NaN latency)
			}
			var p point
			if err := json.Unmarshal(blob, &p); err != nil {
				t.Fatal(err)
			}
			var a arch
			bisected := j < nSat
			if bisected {
				a = g.archs[nSat-1-j]
			} else {
				a = g.archs[(n-1-j)/len(g.axis)] // curve row n-1-j
			}
			if p.Arch != a || (p.Probes > 0) != bisected {
				t.Errorf("%s job %d: ran %s (%d probes), want %s (bisection %v)", st.id, j, p.Arch.label(), p.Probes, a.label(), bisected)
			}
		}
	}
}

func TestT12WorkersByteIdentity(t *testing.T) { checkWorkersByteIdentity(t, t12) }
func TestT13WorkersByteIdentity(t *testing.T) { checkWorkersByteIdentity(t, t13) }
func TestT14WorkerByteIdentity(t *testing.T)  { checkWorkersByteIdentity(t, t14) }

// TestT12QuickShape: curve points for every (B, rate) pair and one
// saturation row per B, with the saturation rate not decreasing in B.
func TestT12QuickShape(t *testing.T) {
	_, _, sat := measure(t, t12, Config{Seed: 7, Quick: true})
	for i := 1; i < len(sat); i++ {
		if sat[i].SatRate < sat[i-1].SatRate {
			t.Errorf("saturation rate decreasing: %s → %g, %s → %g",
				sat[i-1].Arch.label(), sat[i-1].SatRate, sat[i].Arch.label(), sat[i].SatRate)
		}
	}
}

// TestT13QuickShape: the sweep covers the full (B, d, pool) grid. (The
// d=1 static rows agreeing with a direct rigid-engine run would be
// redundant with the vcsim gate tests.)
func TestT13QuickShape(t *testing.T) {
	measure(t, t13, Config{Seed: 7, Quick: true})
	for a, want := range map[arch]string{
		{B: 2, D: 4, Shared: true}: "B=2 d=4 shared",
		{B: 4, D: 1}:               "B=4 d=1",
		{B: 2, D: 4}:               "B=2 d=4",
		{B: 8}:                     "B=8",
	} {
		if got := a.label(); got != want {
			t.Errorf("arch label = %q, want %q", got, want)
		}
	}
}

func TestT13SaturationMonotoneInDepth(t *testing.T) {
	_, _, sat := measure(t, t13, Config{Seed: 42, Quick: true})
	if len(sat) != 6 { // one B × three depths × two pools
		t.Fatalf("saturation rows = %d, want 6", len(sat))
	}
	checkMonotoneInDepth(t, sat)
}

// TestT14QuickShape pins the claims T14 exists to make: every grid
// point produces a row, the light load point is unsaturated for every
// architecture, and at fixed B the bisected saturation rate is
// non-decreasing in lane depth.
func TestT14QuickShape(t *testing.T) {
	g, curve, sat := measure(t, t14, Config{Seed: 42, Quick: true})
	for _, p := range curve {
		if p.Offered == g.axis[0] && p.Saturated {
			t.Errorf("%s: light load %.2f reported saturated", p.Arch.label(), p.Offered)
		}
	}
	checkMonotoneInDepth(t, sat)
}

// TestT15QuickShapes: the quick sweep keeps the full 1024-input
// butterfly, and the overloaded points carry the standing backlog the
// experiment exists to exercise.
func TestT15QuickShapes(t *testing.T) {
	_, curve, _ := measure(t, t15, quickCfg)
	for _, p := range curve {
		if p.N != 1024 {
			t.Errorf("quick row ran n=%d; T15 must keep the full network", p.N)
		}
		if p.Backlog < 0 {
			t.Errorf("%s rate=%g: negative backlog %d", p.Arch.label(), p.Offered, p.Backlog)
		}
	}
}

// TestT15ScaleValidation pins the -scale guard of both scale studies:
// only power-of-two butterflies at least minScale and at most
// traffic.MaxEndpoints wide are accepted (the upper bound is checked
// before anything is sized by it: 1<<30 inputs is an error here, not a
// 180 GB allocation), anything else is an error (from the study, from Validate and from Run
// alike — never a panic), and a study without a scale axis ignores it.
func TestT15ScaleValidation(t *testing.T) {
	for _, tc := range []struct {
		st    *study
		cfg   Config
		wantN int // 0 = rejected
	}{
		{t15, Config{Scale: 3}, 0},
		{t15, Config{Scale: 100}, 0},
		{t15, Config{Scale: 128}, 0},
		{t15, Config{Scale: 100, Quick: true}, 0},
		{t15, Config{Scale: 1 << 30}, 0},
		{t15, Config{Scale: 2 * traffic.MaxEndpoints, Quick: true}, 0},
		{t15, Config{Scale: 2048}, 2048},
		{t15, Config{Scale: 512, Quick: true}, 512}, // quick keeps the network
		{t15, Config{Quick: true}, 1024},
		{t14, Config{Scale: 4}, 0},
		{t14, Config{Scale: 100}, 0},
		{t14, Config{Scale: 100, Quick: true}, 0},
		{t14, Config{Scale: 1 << 30}, 0},
		{t14, Config{Scale: 8}, 8},
		{t14, Config{Scale: 1024}, 1024},
		{t14, Config{Scale: 1024, Quick: true}, 64}, // quick overrides the scale
		{t12, Config{Scale: 100}, 64},
		{t16, Config{Scale: 100, Quick: true}, 64},
	} {
		name := fmt.Sprintf("%s scale=%d quick=%v", tc.st.id, tc.cfg.Scale, tc.cfg.Quick)
		g, err := tc.st.geometry(tc.cfg)
		if verr := Validate(tc.st.id, tc.cfg); (verr == nil) != (err == nil) {
			t.Errorf("%s: Validate returned %v, the study %v", name, verr, err)
		}
		if tc.wantN != 0 {
			if err != nil || g.n != tc.wantN {
				t.Errorf("%s: n=%d err=%v, want n=%d", name, g.n, err, tc.wantN)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "power-of-two") {
			t.Errorf("%s: err = %v, want a power-of-two error", name, err)
		}
		if _, rerr := Run(context.Background(), tc.st.id, tc.cfg); rerr == nil {
			t.Errorf("%s: Run accepted the config", name)
		}
	}
}

// TestT16QuickShapes: the fault-free baseline is healthy (no outages,
// no aborts, unsaturated), and faulted points actually see outages —
// otherwise the sweep is measuring nothing.
func TestT16QuickShapes(t *testing.T) {
	_, curve, _ := measure(t, t16, quickCfg)
	for _, p := range curve {
		if p.N != 64 {
			t.Errorf("quick row ran n=%d, want 64", p.N)
		}
		if p.Offered != t16.fixedLoad {
			t.Errorf("B=%d: offered %g, want the fixed load %g", p.Arch.B, p.Offered, t16.fixedLoad)
		}
		switch {
		case p.FaultRate == 0:
			if p.Outages != 0 {
				t.Errorf("B=%d: fault-free row reports %d outages", p.Arch.B, p.Outages)
			}
			if p.Aborted != 0 {
				t.Errorf("B=%d: fault-free row aborted %d messages", p.Arch.B, p.Aborted)
			}
			if p.Saturated {
				t.Errorf("B=%d: fault-free baseline saturated; offered load is miscalibrated", p.Arch.B)
			}
		default:
			if p.Outages == 0 {
				t.Errorf("B=%d rate=%g: schedule afflicted no edges", p.Arch.B, p.FaultRate)
			}
		}
	}
}

// TestT16GracefulDegradation is the acceptance property at full scale:
//
//   - per B, accepted throughput is monotonically non-increasing in the
//     fault rate (the outage sets are nested across rates, so a genuine
//     increase would be a simulator bug, not noise);
//   - degradation is strictly gentler at B=8 than at B=1 — the retained
//     fraction accepted(max rate)/accepted(0) is higher with 8 lanes,
//     because a killed lane takes out the whole link at B=1 but only an
//     eighth of it at B=8.
func TestT16GracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep")
	}
	g, curve, _ := measure(t, t16, Config{Seed: quickCfg.Seed})

	accepted := map[int]map[float64]float64{}
	for _, p := range curve {
		if accepted[p.Arch.B] == nil {
			accepted[p.Arch.B] = map[float64]float64{}
		}
		accepted[p.Arch.B][p.FaultRate] = p.Accepted
	}
	for _, a := range g.archs {
		curve := accepted[a.B]
		if curve[0] <= 0 {
			t.Fatalf("B=%d: fault-free accepted throughput is %g", a.B, curve[0])
		}
		for i := 1; i < len(g.axis); i++ {
			lo, hi := g.axis[i-1], g.axis[i]
			if curve[hi] > curve[lo] {
				t.Errorf("B=%d: accepted throughput rose with the fault rate: %g@%g > %g@%g",
					a.B, curve[hi], hi, curve[lo], lo)
			}
		}
	}
	maxRate := g.axis[len(g.axis)-1]
	retained := func(b int) float64 { return accepted[b][maxRate] / accepted[b][0] }
	if r1, r8 := retained(1), retained(8); r8 <= r1 {
		t.Errorf("degradation not gentler with more lanes: B=8 retains %.4f of baseline, B=1 retains %.4f", r8, r1)
	}
}

// Cross-engine differential tests at the experiment level: every T12
// load point and every per-B saturation search, executed through both
// the blocked-worm wakeup engine and the retained naive scan, must
// produce identical results — the property that kept the T12 tables
// byte-identical across the engine swap. Quick scale; the vcsim-level
// differential tests cover the raw config space.

func TestT12LoadPointsWakeupMatchesNaive(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true}
	g, err := t12.geometry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range g.archs {
		for _, rate := range g.axis {
			wakeCfg := t12.traffic(cfg, g, a, rate, t12.stride)
			wakeCfg.Seed += uint64(rate * 1e6)
			naiveCfg := wakeCfg
			naiveCfg.NaiveScan = true
			wake, err := traffic.Run(wakeCfg)
			if err != nil {
				t.Fatalf("%s rate=%g: %v", a.label(), rate, err)
			}
			naive, err := traffic.Run(naiveCfg)
			if err != nil {
				t.Fatalf("%s rate=%g (naive): %v", a.label(), rate, err)
			}
			if !reflect.DeepEqual(wake, naive) {
				t.Errorf("%s rate=%g: engines disagree\nwakeup: %+v\n naive: %+v", a.label(), rate, wake, naive)
			}
		}
	}
}

func TestT12SaturationSearchWakeupMatchesNaive(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true}
	g, err := t12.geometry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range g.archs {
		wakeCfg := t12.traffic(cfg, g, a, 1, t12.satStride)
		naiveCfg := wakeCfg
		naiveCfg.NaiveScan = true
		wake, err := traffic.SaturationRate(wakeCfg, g.search)
		if err != nil {
			t.Fatalf("%s: %v", a.label(), err)
		}
		naive, err := traffic.SaturationRate(naiveCfg, g.search)
		if err != nil {
			t.Fatalf("%s (naive): %v", a.label(), err)
		}
		if !reflect.DeepEqual(wake, naive) {
			t.Errorf("%s: saturation searches disagree\nwakeup: %+v\n naive: %+v", a.label(), wake, naive)
		}
	}
}

// openLoopQuickSHA256 is the SHA-256 of `wormbench -run T -quick -csv
// -seed 42` stdout for T = T12..T16, concatenated, recorded from a build
// of the commit before the five experiments became declarations. Root
// `go test ./...` pins no other table bytes, so this is what makes a
// T12–T16 drift a tier-1 failure. The full-scale counterpart is
// testdata/openloop_full.sha256, checked in CI.
const openLoopQuickSHA256 = "fb32f2356f7e6af810c99952d862ee83b4dc9b328c1b7be4b48e213d2d762200"

func TestOpenLoopQuickGolden(t *testing.T) {
	var out bytes.Buffer
	for _, st := range openLoopStudies {
		tables, err := Run(context.Background(), st.id, Config{Seed: 42, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.WriteTablesCSV(&out, tables); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != openLoopQuickSHA256 {
		t.Errorf("T12–T16 quick CSV digest %s, want %s; output:\n%s", got, openLoopQuickSHA256, out.String())
	}
}
