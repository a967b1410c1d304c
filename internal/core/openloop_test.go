package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wormhole/internal/traffic"
)

// studyRows measures one of a study's tables under cfg and checks what
// every study promises of it: a row per cell of the grid — per
// (architecture, axis value) on a curve, per architecture where it
// bisects — each with traffic actually flowing.
func studyRows(t *testing.T, s *openLoop, cfg Config, b *batch) (loadGrid, []tableRow) {
	t.Helper()
	g, err := s.grid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(t, cfg, b)
	want := len(g.bs) * len(g.ds) * len(g.pools)
	if _, curve := rows[0]["messages"]; curve {
		want *= len(g.axis)
	}
	if len(rows) != want {
		t.Fatalf("%s: %d rows, want %d", b.title, len(rows), want)
	}
	for _, r := range rows {
		if r.f("n") != float64(g.n) {
			t.Errorf("%s: row ran n=%v, want %d", b.title, r["n"], g.n)
		}
		if v, ok := r["messages"]; ok && v == 0 {
			t.Errorf("%s: %v: no messages injected", b.title, r)
		}
		if v, ok := r["probes"]; ok && v == 0 {
			t.Errorf("%s: %v: no probes", b.title, r)
		}
	}
	return g, rows
}

// checkMonotoneInDepth is the T13/T14 acceptance criterion: at fixed B
// and pool mode the saturation rate is non-decreasing in lane depth —
// extra lane storage can only absorb more backlog. The depths of one
// (B, pool) family share arrival sample paths (depth never enters the
// seed), so this is a like-for-like comparison, not a statistical one.
// A family's rows are adjacent, depths ascending.
func checkMonotoneInDepth(t *testing.T, sat []tableRow) {
	t.Helper()
	for i, r := range sat {
		if r.f("sat rate") <= 0 {
			t.Errorf("%v: saturation rate not positive", r)
		}
		if i == 0 || r.f("d") <= sat[i-1].f("d") {
			continue // a new family
		}
		if prev := sat[i-1]; r.f("sat rate") < prev.f("sat rate") {
			t.Errorf("saturation rate decreasing in depth: %v → %v", prev, r)
		}
	}
}

// TestT12QuickShape: a curve row for every (B, rate) pair and one
// saturation row per B, with the saturation rate not decreasing in B.
func TestT12QuickShape(t *testing.T) {
	cfg := Config{Seed: 7, Quick: true}
	studyRows(t, t12, cfg, t12Curve)
	_, sat := studyRows(t, t12, cfg, t12Sat)
	for i := 1; i < len(sat); i++ {
		if sat[i].f("sat rate") < sat[i-1].f("sat rate") {
			t.Errorf("saturation rate decreasing: %v → %v", sat[i-1], sat[i])
		}
	}
}

// TestT13QuickShape: the sweep covers the full (B, d, pool) grid, in
// table order.
func TestT13QuickShape(t *testing.T) {
	g, rows := studyRows(t, t13, Config{Seed: 7, Quick: true}, t13Curve)
	i := 0
	for _, b := range g.bs {
		for _, pool := range g.pools {
			for _, d := range g.ds {
				for range g.axis {
					if r := rows[i]; r.f("B") != float64(b) || r.f("d") != float64(d) || r["pool"] != poolNames[pool] {
						t.Errorf("row %d is %v, want B=%d d=%d %s", i, r, b, d, poolNames[pool])
					}
					i++
				}
			}
		}
	}
}

func TestT13SaturationMonotoneInDepth(t *testing.T) {
	_, sat := studyRows(t, t13, Config{Seed: 42, Quick: true}, t13Sat)
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
	cfg := Config{Seed: 42, Quick: true}
	g, curve := studyRows(t, t14, cfg, t14Curve)
	for _, r := range curve {
		if r.f("offered") == g.axis[0] && r.is("saturated") {
			t.Errorf("%v: light load reported saturated", r)
		}
	}
	_, sat := studyRows(t, t14, cfg, t14Sat)
	checkMonotoneInDepth(t, sat)
}

// TestT15QuickShapes: the quick sweep keeps the full 1024-input
// butterfly, and the overloaded points carry the standing backlog the
// experiment exists to exercise.
func TestT15QuickShapes(t *testing.T) {
	g, curve := studyRows(t, t15, quickCfg, t15Curve)
	if g.n != 1024 {
		t.Errorf("quick rows ran n=%d; T15 must keep the full network", g.n)
	}
	for _, r := range curve {
		if r.f("backlog") < 0 {
			t.Errorf("%v: negative backlog", r)
		}
	}
}

// TestT15ScaleValidation pins the -scale guard of both scale studies:
// only power-of-two butterflies at least minScale and at most
// traffic.MaxEndpoints wide are accepted (the upper bound is checked
// before anything is sized by it: 1<<30 inputs is an error here, not a
// 180 GB allocation), anything else is an error (from the study, from
// Validate and from Run alike — never a panic), and a study without a
// scale axis ignores it.
func TestT15ScaleValidation(t *testing.T) {
	for _, tc := range []struct {
		s     *openLoop
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
		name := fmt.Sprintf("%s scale=%d quick=%v", tc.s.id, tc.cfg.Scale, tc.cfg.Quick)
		g, err := tc.s.grid(tc.cfg)
		if verr := Validate(tc.s.id, tc.cfg); (verr == nil) != (err == nil) {
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
		if _, rerr := Run(context.Background(), tc.s.id, tc.cfg); rerr == nil {
			t.Errorf("%s: Run accepted the config", name)
		}
	}
}

// TestT16QuickShapes: the fault-free baseline is healthy (no outages,
// no aborts, unsaturated), and faulted points actually see outages —
// otherwise the sweep is measuring nothing.
func TestT16QuickShapes(t *testing.T) {
	g, curve := studyRows(t, t16, quickCfg, t16Curve)
	if g.n != 64 {
		t.Errorf("quick rows ran n=%d, want 64", g.n)
	}
	for _, r := range curve {
		if r.f("offered") != t16.fixedLoad {
			t.Errorf("%v: offered load is not the fixed load %g", r, t16.fixedLoad)
		}
		switch {
		case r.f("fault rate") == 0:
			if r.f("outages") != 0 || r.f("aborted") != 0 {
				t.Errorf("%v: fault-free row has outages or aborts", r)
			}
			if r.is("saturated") {
				t.Errorf("%v: fault-free baseline saturated; offered load is miscalibrated", r)
			}
		case r.f("outages") == 0:
			t.Errorf("%v: schedule afflicted no edges", r)
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
	_, curve := studyRows(t, t16, Config{Seed: quickCfg.Seed}, t16Curve)
	accepted := map[float64][]float64{} // per B, in fault-rate order
	for i, r := range curve {
		b := r.f("B")
		if len(accepted[b]) == 0 && r.f("accepted") <= 0 {
			t.Fatalf("B=%v: fault-free accepted throughput is %v", b, r.f("accepted"))
		}
		if len(accepted[b]) > 0 && r.f("accepted") > curve[i-1].f("accepted") {
			t.Errorf("accepted throughput rose with the fault rate: %v → %v", curve[i-1], r)
		}
		accepted[b] = append(accepted[b], r.f("accepted"))
	}
	retained := func(b float64) float64 { return accepted[b][len(accepted[b])-1] / accepted[b][0] }
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
	g := t12.at(cfg)
	for _, c := range t12.curve(cfg) {
		wakeCfg := t12.traffic(cfg, g, c, t12.stride)
		wakeCfg.Seed += uint64(c.rate * 1e6)
		naiveCfg := wakeCfg
		naiveCfg.NaiveScan = true
		wake, err := traffic.Run(wakeCfg)
		if err != nil {
			t.Fatalf("B=%d rate=%g: %v", c.B, c.rate, err)
		}
		naive, err := traffic.Run(naiveCfg)
		if err != nil {
			t.Fatalf("B=%d rate=%g (naive): %v", c.B, c.rate, err)
		}
		if !reflect.DeepEqual(wake, naive) {
			t.Errorf("B=%d rate=%g: engines disagree\nwakeup: %+v\n naive: %+v", c.B, c.rate, wake, naive)
		}
	}
}

func TestT12SaturationSearchWakeupMatchesNaive(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true}
	g := t12.at(cfg)
	for _, b := range g.bs {
		wakeCfg := t12.traffic(cfg, g, cell{B: b}, t12.satStride)
		naiveCfg := wakeCfg
		naiveCfg.NaiveScan = true
		wake, err := traffic.SaturationRate(wakeCfg, g.search)
		if err != nil {
			t.Fatalf("B=%d: %v", b, err)
		}
		naive, err := traffic.SaturationRate(naiveCfg, g.search)
		if err != nil {
			t.Fatalf("B=%d (naive): %v", b, err)
		}
		if !reflect.DeepEqual(wake, naive) {
			t.Errorf("B=%d: saturation searches disagree\nwakeup: %+v\n naive: %+v", b, wake, naive)
		}
	}
}

// openLoopQuickSHA256 is the SHA-256 of `wormbench -run T -quick -csv
// -seed 42` stdout for T = T12..T16, concatenated, recorded from a build
// of the commit before the five experiments became declarations. It is
// a slice of what quickSHA256 pins, read from the same registry pass,
// so a drift that fails TestBatchQuickGolden is placed inside or
// outside the open-loop studies at no extra run.
const openLoopQuickSHA256 = "fb32f2356f7e6af810c99952d862ee83b4dc9b328c1b7be4b48e213d2d762200"

func TestOpenLoopQuickGolden(t *testing.T) {
	var out strings.Builder
	for _, id := range []string{"T12", "T13", "T14", "T15", "T16"} {
		out.WriteString(quickPass(t, id).plain)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != openLoopQuickSHA256 {
		t.Errorf("T12–T16 quick CSV digest %s, want %s; output:\n%s", got, openLoopQuickSHA256, out.String())
	}
}
