// Benchmark harness: one benchmark per reproduced table/figure (see the
// experiment catalogue in README.md) plus the ablation studies.
//
// Each benchmark executes the corresponding experiment at smoke scale per
// iteration and reports experiment-specific metrics (flit steps, classes,
// speedups) through b.ReportMetric, so `go test -bench` output doubles as
// a compact reproduction log. Full-scale numbers are produced by
// `go run ./cmd/wormbench -all`.
package wormhole_test

import (
	"fmt"
	"testing"

	"wormhole"
	"wormhole/internal/butterfly"
	"wormhole/internal/core"
	"wormhole/internal/lowerbound"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/schedule"
	"wormhole/internal/topology"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

var benchCfg = core.Config{Seed: 42, Quick: true}

// runExperiment is the generic per-table driver.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := core.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkF1Butterfly(b *testing.B)        { runExperiment(b, "F1") }
func BenchmarkF2TwoPass(b *testing.B)          { runExperiment(b, "F2") }
func BenchmarkT1ScheduleLength(b *testing.B)   { runExperiment(b, "T1") }
func BenchmarkT2LowerBound(b *testing.B)       { runExperiment(b, "T2") }
func BenchmarkT3QRelation(b *testing.B)        { runExperiment(b, "T3") }
func BenchmarkT4OnePass(b *testing.B)          { runExperiment(b, "T4") }
func BenchmarkT5RouterComparison(b *testing.B) { runExperiment(b, "T5") }
func BenchmarkT6NaiveVsLLL(b *testing.B)       { runExperiment(b, "T6") }
func BenchmarkT7CircuitSwitch(b *testing.B)    { runExperiment(b, "T7") }
func BenchmarkT8RestrictedModel(b *testing.B)  { runExperiment(b, "T8") }
func BenchmarkT9Waksman(b *testing.B)          { runExperiment(b, "T9") }
func BenchmarkT10Continuous(b *testing.B)      { runExperiment(b, "T10") }
func BenchmarkT11DallySeitz(b *testing.B)      { runExperiment(b, "T11") }
func BenchmarkT12OpenLoop(b *testing.B)        { runExperiment(b, "T12") }
func BenchmarkT13BufferArch(b *testing.B)      { runExperiment(b, "T13") }

func BenchmarkAblationArbitration(b *testing.B) { runExperiment(b, "A1") }
func BenchmarkAblationResample(b *testing.B)    { runExperiment(b, "A2") }
func BenchmarkAblationDrop(b *testing.B)        { runExperiment(b, "A3") }
func BenchmarkAblationPasses(b *testing.B)      { runExperiment(b, "A4") }
func BenchmarkAblationPathSelect(b *testing.B)  { runExperiment(b, "A5") }

// BenchmarkParallelHarness measures the job-runner's scaling: the same
// experiment bundle executed across worker counts. Output tables are
// byte-identical for every worker count (see core.TestParallelDeterminism),
// so the speedup is pure harness parallelism.
func BenchmarkParallelHarness(b *testing.B) {
	// T1+T6 share the schedule-heavy workloads; T4 adds simulator load.
	ids := []string{"T1", "T4", "T6"}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := core.Config{Seed: 42, Quick: true, Workers: w}
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					if _, err := core.Run(id, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- component micro-benchmarks ----------------------------------------------
//
// These isolate the hot paths so performance regressions in the simulator
// or scheduler are visible independent of the experiment wrappers.

// BenchmarkSimulatorGreedy measures raw flit-level simulation throughput
// on a contended butterfly workload, reporting flit-hops per second.
func BenchmarkSimulatorGreedy(b *testing.B) {
	for _, bench := range []struct {
		name string
		vcs  int
	}{
		{"B=1", 1}, {"B=2", 2}, {"B=4", 4},
	} {
		b.Run(bench.name, func(b *testing.B) {
			prob := core.ButterflyQRelation(128, 8, 16, 7)
			b.ResetTimer()
			var hops int64
			var steps int
			for i := 0; i < b.N; i++ {
				res := prob.RouteGreedy(core.GreedyOptions{B: bench.vcs, Policy: vcsim.ArbAge})
				hops = res.FlitHops
				steps = res.Steps
			}
			b.ReportMetric(float64(hops), "flit-hops/op")
			b.ReportMetric(float64(steps), "flit-steps")
		})
	}
}

// BenchmarkOpenLoopStep measures the incremental engine at steady state
// on a 64-input butterfly under continuous Poisson injection, reporting
// the cost of one open-loop flit step. This is the hot path of the
// traffic subsystem, so the ns/step trajectory is the perf baseline for
// future engine work (benchmark/'s knee-rigid workload tracks the same
// operating point end to end).
//
// Two operating points bracket the regime:
//
//   - light (λ = 0.1, B = 4): far below the knee; almost every worm
//     moves every step, so this measures the raw advance path.
//   - knee (λ = 0.3, B = 2): ≈ 98% of the B=2 saturation rate 0.306 —
//     the highest pre-saturation T12 load point relative to its knee —
//     with windows long enough to reach the true standing backlog. Most
//     worms are slot-blocked here, which is what the blocked-worm wakeup
//     engine exists for.
func BenchmarkOpenLoopStep(b *testing.B) {
	for _, bench := range []struct {
		name string
		cfg  traffic.Config
	}{
		{"light", traffic.Config{
			Net:             traffic.NewButterflyNet(64),
			VirtualChannels: 4,
			MessageLength:   6,
			Arbitration:     vcsim.ArbAge,
			Process:         traffic.Poisson,
			Rate:            0.1,
			Pattern:         traffic.Uniform,
			Warmup:          128,
			Measure:         1024,
			Drain:           2048,
			Seed:            17,
		}},
		{"knee", traffic.Config{
			Net:             traffic.NewButterflyNet(64),
			VirtualChannels: 2,
			MessageLength:   6,
			Arbitration:     vcsim.ArbAge,
			Process:         traffic.Poisson,
			Rate:            0.3,
			Pattern:         traffic.Uniform,
			Warmup:          2048,
			Measure:         8192,
			Drain:           32768,
			MaxBacklog:      65536,
			Seed:            17,
		}},
		// The same knee, on 4-flit lanes: the deep engine's per-flit
		// stepping and credit wakeups under sustained backlog.
		{"deepknee-static", traffic.Config{
			Net:             traffic.NewButterflyNet(64),
			VirtualChannels: 2,
			LaneDepth:       4,
			MessageLength:   6,
			Arbitration:     vcsim.ArbAge,
			Process:         traffic.Poisson,
			Rate:            0.3,
			Pattern:         traffic.Uniform,
			Warmup:          2048,
			Measure:         8192,
			Drain:           32768,
			MaxBacklog:      65536,
			Seed:            17,
		}},
		{"deepknee-shared", traffic.Config{
			Net:             traffic.NewButterflyNet(64),
			VirtualChannels: 2,
			LaneDepth:       4,
			SharedPool:      true,
			MessageLength:   6,
			Arbitration:     vcsim.ArbAge,
			Process:         traffic.Poisson,
			Rate:            0.3,
			Pattern:         traffic.Uniform,
			Warmup:          2048,
			Measure:         8192,
			Drain:           32768,
			MaxBacklog:      65536,
			Seed:            17,
		}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := traffic.Run(bench.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Saturated {
					b.Fatal("benchmark workload must run at steady state")
				}
				steps += int64(res.Steps)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkSimStepSaturated isolates Sim.Step itself — no injection, no
// traffic wrapper — on a deeply contended line network where most worms
// sit parked on wait queues. allocs/op must be 0: the stepping hot loop
// runs entirely on reused scratch (see the -benchmem satellite of the
// wakeup refactor).
func BenchmarkSimStepSaturated(b *testing.B) {
	g := topology.NewLinearArray(9)
	route := message.ShortestPathRouter(g)
	msg := message.Message{Src: 0, Dst: 8, Length: 6, Path: route(0, 8)}
	build := func() *vcsim.Sim {
		sim, err := vcsim.NewSim(g, vcsim.Config{
			VirtualChannels: 2, Arbitration: vcsim.ArbAge, MaxSteps: 1 << 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4096; i++ {
			if _, err := sim.Inject(msg, 0); err != nil {
				b.Fatal(err)
			}
		}
		return sim
	}
	sim := build()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(); err != nil || sim.Active() < 256 {
			// Workload nearly drained (or horizon hit): rebuild off the
			// clock so every measured iteration steps a loaded network.
			b.StopTimer()
			sim = build()
			b.StartTimer()
		}
	}
}

// BenchmarkScheduleBuild measures LLL schedule construction.
func BenchmarkScheduleBuild(b *testing.B) {
	prob := core.ButterflyQRelation(128, 8, 24, 9)
	for _, vcs := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "B=1", 2: "B=2", 4: "B=4"}[vcs], func(b *testing.B) {
			var classes int
			for i := 0; i < b.N; i++ {
				sched, err := schedule.Build(prob.Set, schedule.Options{
					B:             vcs,
					ConstantScale: core.DefaultConstantScale,
				}, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				classes = sched.NumClasses
			}
			b.ReportMetric(float64(classes), "classes")
		})
	}
}

// BenchmarkLockstepSubround measures the fast-path subround engine used by
// the Section 3.1 algorithm.
func BenchmarkLockstepSubround(b *testing.B) {
	const n = 1024
	r := rng.New(3)
	routes := make([]butterfly.TwoPassRoute, 4*n)
	for i := range routes {
		routes[i] = butterfly.TwoPassRoute{Src: r.Intn(n), Mid: r.Intn(n), Dst: r.Intn(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		butterfly.RunLockstepSubround(n, 2, routes, butterfly.ArbRandom, r)
	}
}

// BenchmarkAdversaryBuild measures the Theorem 2.2.1 construction.
func BenchmarkAdversaryBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lowerbound.Build(lowerbound.Params{B: 2, TargetD: 24, TargetC: 12, L: 72})
	}
}

// BenchmarkButterflyRoute measures bit-fixing path construction.
func BenchmarkButterflyRoute(b *testing.B) {
	bf := topology.NewButterfly(1024)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Route(r.Intn(1024), r.Intn(1024))
	}
}

// BenchmarkPublicAPI exercises the facade end to end (quickstart shape).
func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prob := wormhole.ButterflyQRelation(64, 4, 12, uint64(i))
		res := prob.RouteGreedy(wormhole.GreedyOptions{B: 2})
		if !res.AllDelivered() {
			b.Fatal("undelivered")
		}
	}
}
