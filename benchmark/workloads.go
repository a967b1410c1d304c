package main

import "wormhole/internal/traffic"

// workloadDef names one workload and how a child sets it up. Set-up
// includes the warm-up iterations, on purpose: it is what a user waits
// for before the first steady-state result, and it is long enough to
// repeat. The workload marks its timing segments on seg, during set-up
// and in every timed iteration. BENCHMARK.json carries each workload's
// one-line reason.
type workloadDef struct {
	name  string
	setup func(env runEnv, tr *tracer, seg *segTimer) (instance, error)
}

var workloads = []workloadDef{
	// The rigid wakeup kernel at the knee: ≈ 86% of the time is inside
	// vcsim's Step/StepTo.
	{"knee-rigid", func(env runEnv, tr *tracer, seg *segTimer) (instance, error) {
		return setupRunners(env, tr, seg, 64, 2, 64, func(net *traffic.Network) []simRun {
			return []simRun{{cfg: kneeConfig(env, net)}}
		})
	}},
	// The same operating point on 4-flit lanes, static and pooled: the
	// deep engine does the work and the rigid kernel none.
	{"knee-deep", func(env runEnv, tr *tracer, seg *segTimer) (instance, error) {
		return setupRunners(env, tr, seg, 64, 1, 32, func(net *traffic.Network) []simRun {
			static := kneeConfig(env, net)
			static.LaneDepth = 4
			shared := static
			shared.SharedPool = true
			return []simRun{{label: "static", cfg: static}, {label: "shared", cfg: shared}}
		})
	}},
	// Many endpoints, few active worms: more than half the time is the
	// injection path (routing, arrivals, Inject) and StepTo fast-forwards.
	{"sparse-wide", func(env runEnv, tr *tracer, seg *segTimer) (instance, error) {
		return setupRunners(env, tr, seg, 4096, 1, 8, func(net *traffic.Network) []simRun {
			cfg := openLoop(env, net, 2, 0.02, 256, 4096, 4096)
			cfg.MessageLength = 4
			return []simRun{{cfg: cfg}}
		})
	}},
	{"bisect-sat", setupBisect},
	{"ckpt-long", setupCkpt},
	{"tables-quick", setupTables},
	{"daemon-sweep", setupDaemon},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
