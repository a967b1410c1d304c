package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"wormhole/internal/stats"
	"wormhole/internal/vcsim"
)

var quickCfg = Config{Seed: 11, Quick: true}

func TestWorkloadBuilders(t *testing.T) {
	p := ButterflyQRelation(32, 4, 16, 1)
	if p.Set.Len() != 128 {
		t.Errorf("q-relation messages = %d", p.Set.Len())
	}
	if p.D != 5 {
		t.Errorf("butterfly(32) dilation = %d, want log n = 5", p.D)
	}
	if p.C < 4 {
		t.Errorf("congestion %d below q", p.C)
	}
	if p.L != 16 {
		t.Error("L")
	}

	p = ButterflyRandom(32, 3, 8, 2)
	if p.Set.Len() != 96 || p.D != 5 {
		t.Error("butterfly random workload")
	}

	p = MeshTranspose(4, 8)
	if p.Set.Len() != 12 {
		t.Errorf("transpose messages = %d, want 12", p.Set.Len())
	}

	p = RandomRegularWorkload(64, 3, 100, 8, 3)
	if p.Set.Len() != 100 || p.D < 1 {
		t.Error("random regular workload")
	}

	p = LinearHotspot(10, 5, 8)
	if p.C != 10 || p.D != 5 {
		t.Errorf("hotspot C=%d D=%d", p.C, p.D)
	}
}

func TestRouteGreedyAndScheduled(t *testing.T) {
	p := ButterflyQRelation(32, 4, 12, 5)
	greedy := p.RouteGreedy(GreedyOptions{B: 2, Policy: vcsim.ArbAge})
	if !greedy.AllDelivered() {
		t.Fatal("greedy undelivered")
	}
	sched, ver, err := p.RouteScheduled(ScheduleOptions{B: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ver.TotalStalls != 0 {
		t.Error("scheduled run stalled")
	}
	if sched.NumClasses < 1 {
		t.Error("no classes")
	}
	// Restricted + spacing variant also delivers.
	_, rres, err := p.RouteScheduled(ScheduleOptions{B: 2, Seed: 5, Restricted: true, SpacingFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rres.AllDelivered() {
		t.Error("restricted scheduled run undelivered")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"A1", "A2", "A3", "A4", "A5", "F1", "F2", "T1", "T10", "T11", "T12", "T13", "T14", "T15", "T16", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" {
			t.Errorf("%s: empty title", e.ID)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run(context.Background(), "T99", quickCfg); err == nil {
		t.Error("unknown ID must error")
	}
}

// TestAllExperimentsRunQuick is the harness integration test: every
// experiment must complete in Quick mode and produce non-empty tables.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := Run(context.Background(), e.ID, quickCfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if tab.NumRows() == 0 {
					t.Errorf("%s: empty table:\n%s", e.ID, tab)
				}
				if !strings.Contains(tab.String(), "—") {
					t.Errorf("%s: table missing title", e.ID)
				}
			}
		})
	}
}

// TestExperimentsLeakNoGoroutines pins the harness lifecycle: mapJobs
// fans every experiment's jobs across worker goroutines, and all of them
// must be gone once Run returns.
func TestExperimentsLeakNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, id := range []string{"T12", "T15"} {
		if _, err := Run(context.Background(), id, quickCfg); err != nil {
			t.Fatal(err)
		}
	}
	// Workers exit asynchronously after their last job; give them a
	// bounded grace period before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines outlive the experiments (baseline %d)\n%s",
			n, base, buf[:runtime.Stack(buf, true)])
	}
}

// --- per-experiment shape assertions -----------------------------------------

func TestT1SuperlinearShape(t *testing.T) {
	rows := tableRows(t, quickCfg, t1)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.f("B") == 1 {
			if r.f("speedup") != 1 {
				t.Errorf("%s B=1 speedup = %v", r["workload"], r.f("speedup"))
			}
			continue
		}
		// The LLL schedule must improve superlinearly: speedup > B.
		if r.f("speedup/B") <= 1 {
			t.Errorf("%s B=%v: speedup/B = %v ≤ 1 (classes %v)", r["workload"], r.f("B"), r.f("speedup/B"), r.f("classes"))
		}
	}
}

func TestT2FloorsHold(t *testing.T) {
	for _, r := range tableRows(t, quickCfg, t2) {
		floor := r.f("floor(L-D)M/B")
		if r.f("greedy") < floor || r.f("scheduled") < floor {
			t.Errorf("B=%v: a measured run beat the impossible floor %v (greedy %v sched %v)",
				r.f("B"), floor, r.f("greedy"), r.f("scheduled"))
		}
		if r.f("best/floor") < 1 {
			t.Errorf("B=%v: floor ratio %v < 1", r.f("B"), r.f("best/floor"))
		}
	}
}

func TestT2SuperlinearAtHighB(t *testing.T) {
	rows := tableRows(t, quickCfg, t2b)
	last := rows[len(rows)-1]
	if last.f("speedup") < last.f("router B") {
		t.Errorf("B=%v on the fixed adversary: speedup %v below linear", last.f("router B"), last.f("speedup"))
	}
	// Makespan must be non-increasing in B.
	prev := math.Inf(1)
	for _, r := range rows {
		if r.f("best") > prev {
			t.Errorf("B=%v best %v worse than previous %v", r.f("router B"), r.f("best"), prev)
		}
		prev = r.f("best")
	}
}

func TestT3AllDelivered(t *testing.T) {
	for _, r := range tableRows(t, quickCfg, t3) {
		if r.f("delivered") < 1 {
			t.Errorf("n=%v q=%v B=%v: delivered fraction %v", r.f("n"), r.f("q"), r.f("B"), r.f("delivered"))
		}
		if r.f("B") > 1 && r.f("speedup") <= 1 {
			t.Errorf("B=%v: no speedup (%v)", r.f("B"), r.f("speedup"))
		}
	}
}

func TestT4StepsFallWithB(t *testing.T) {
	prev := math.Inf(1)
	for _, r := range tableRows(t, quickCfg, t4) {
		if r.f("steps") > prev {
			t.Errorf("B=%v: one-pass steps %v rose from %v", r.f("B"), r.f("steps"), prev)
		}
		prev = r.f("steps")
	}
}

func TestT5Relationships(t *testing.T) {
	byMethod := map[any]tableRow{}
	for _, r := range tableRows(t, quickCfg, t5) {
		byMethod[r["method"]] = r
		if !r.is("all delivered") {
			t.Errorf("%s failed to deliver", r["method"])
		}
	}
	saf := byMethod["store-and-forward greedy"]
	wh1 := byMethod["wormhole LLL-scheduled B=1"]
	// The paper's Section 1.4 point: SAF beats scheduled wormhole at
	// B = 1, but needs a much larger buffer budget.
	if saf.f("flit steps") >= wh1.f("flit steps") {
		t.Errorf("SAF (%v) should beat scheduled wormhole B=1 (%v) per Section 1.4",
			saf.f("flit steps"), wh1.f("flit steps"))
	}
	if saf.f("buffer flits/edge") <= wh1.f("buffer flits/edge") {
		t.Errorf("SAF buffer budget (%v) should exceed wormhole's (%v)",
			saf.f("buffer flits/edge"), wh1.f("buffer flits/edge"))
	}
}

func TestT9WaksmanOptimal(t *testing.T) {
	for _, r := range tableRows(t, quickCfg, t9) {
		if !r.is("optimal&stall-free") {
			t.Errorf("n=%v L=%v: Beneš routing not stall-free optimal (steps %v, stalls %v)",
				r.f("n"), r.f("L"), r.f("Beneš steps"), r.f("stalls"))
		}
		if r.f("speedup") < 1 {
			t.Errorf("n=%v: greedy butterfly should not beat edge-disjoint Waksman (%v)", r.f("n"), r.f("speedup"))
		}
	}
}

func TestT10LatencyRisesWithRate(t *testing.T) {
	byB := map[float64][]tableRow{}
	for _, r := range tableRows(t, quickCfg, t10) {
		byB[r.f("B")] = append(byB[r.f("B")], r)
	}
	for b, rs := range byB {
		for i := 1; i < len(rs); i++ {
			if rs[i].f("mean latency") < rs[i-1].f("mean latency")*0.8 {
				t.Errorf("B=%v: latency fell sharply with rate (%v → %v)",
					b, rs[i-1].f("mean latency"), rs[i].f("mean latency"))
			}
		}
	}
	// More channels must not hurt at equal rate.
	lo, hi := byB[1], byB[4]
	if len(lo) == 0 || len(lo) != len(hi) {
		t.Fatalf("B=1 has %d rates, B=4 %d", len(lo), len(hi))
	}
	for i := range lo {
		if hi[i].f("mean latency") > lo[i].f("mean latency")*1.2+2 {
			t.Errorf("rate %v: B=4 latency %v worse than B=1 %v",
				lo[i].f("rate/input"), hi[i].f("mean latency"), lo[i].f("mean latency"))
		}
	}
}

func TestT11DisciplineSeparation(t *testing.T) {
	for _, r := range tableRows(t, quickCfg, t11) {
		waves := r.f("waves")
		switch r["discipline"] {
		case "dateline 2 classes":
			if !r.is("dep. acyclic") {
				t.Errorf("dateline dependency graph must be acyclic (waves %v)", waves)
			}
			if r.is("deadlocked") || r.f("delivered") != r.f("messages") {
				t.Errorf("dateline must deliver everything (waves %v): deadlock=%v %v/%v",
					waves, r.is("deadlocked"), r.f("delivered"), r.f("messages"))
			}
		case "plain B=1":
			if !r.is("deadlocked") {
				t.Errorf("plain ring should deadlock (waves %v)", waves)
			}
		case "anonymous B=2":
			if waves == 0 && r.is("deadlocked") {
				t.Error("anonymous B=2 should survive the sparse load")
			}
			if waves >= 1 && !r.is("deadlocked") {
				t.Errorf("anonymous B=2 should deadlock under full pressure (waves %v)", waves)
			}
		default:
			t.Errorf("unknown discipline %v", r["discipline"])
		}
	}
}

func TestT7FractionMonotoneInB(t *testing.T) {
	byN := map[float64][]tableRow{}
	for _, r := range tableRows(t, quickCfg, t7) {
		byN[r.f("n")] = append(byN[r.f("n")], r)
	}
	for n, rs := range byN {
		for i := 1; i < len(rs); i++ {
			if rs[i].f("locked fraction") < rs[i-1].f("locked fraction") {
				t.Errorf("n=%v: fraction fell from B=%v to B=%v (%v → %v)",
					n, rs[i-1].f("B"), rs[i].f("B"), rs[i-1].f("locked fraction"), rs[i].f("locked fraction"))
			}
		}
	}
}

// TestQuickKeepsTrials: Quick changes the default trial count, not a
// count the caller asked for (-quick used to overwrite -trials in T3, T4
// and T7, so `-quick -trials 9` ran the quick default).
func TestQuickKeepsTrials(t *testing.T) {
	for _, id := range []string{"T3", "T4", "T7"} {
		render := func(trials int) string {
			tables, err := Run(context.Background(), id, Config{Seed: 11, Quick: true, Trials: trials})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := stats.WriteTablesCSV(&sb, tables); err != nil {
				t.Fatal(err)
			}
			return sb.String()
		}
		if render(1) == render(0) {
			t.Errorf("%s: Quick with Trials 1 rendered the same table as Quick alone", id)
		}
	}
}

func TestT8EmulationFactor(t *testing.T) {
	for _, r := range tableRows(t, quickCfg, t8) {
		b := r.f("B")
		// Restricted runs can never beat the full VC model.
		if r.f("restricted-steps") < r.f("vc-steps") {
			t.Errorf("B=%v: restricted (%v) faster than VC model (%v)", b, r.f("restricted-steps"), r.f("vc-steps"))
		}
		// The emulation overhead is at most ≈ B (paper's remark).
		if r.f("restricted/vc") > b+1 {
			t.Errorf("B=%v: emulation factor %v far above B", b, r.f("restricted/vc"))
		}
		// Buffering alone still helps: gain grows with B.
		if b > 1 && r.f("gain vs B=1") <= 1 {
			t.Errorf("B=%v: no buffering-only gain (%v)", b, r.f("gain vs B=1"))
		}
	}
}
