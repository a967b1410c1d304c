package traffic

import (
	"reflect"
	"sync"
	"testing"

	"wormhole/internal/vcsim"
)

// TestRunnerSteadyStateZeroAlloc asserts the benchmark suite's alloc
// gate at its source: once a Runner has executed a run and sized its
// storage, further runs of the same workload allocate nothing — on a
// small network and on one wide enough (512 inputs) that no per-message
// route may be allocated to get there.
func TestRunnerSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		inputs int
		rate   float64
	}{{16, 0.25}, {512, 0.05}} {
		cfg := Config{
			Net:             NewButterflyNet(tc.inputs),
			VirtualChannels: 2,
			LaneDepth:       2,
			MessageLength:   4,
			Arbitration:     vcsim.ArbAge,
			Process:         Poisson,
			Rate:            tc.rate,
			Pattern:         Uniform,
			Warmup:          32,
			Measure:         128,
			Drain:           512,
			MaxBacklog:      4096,
			Seed:            7,
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(3, func() {
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("n=%d: reused Runner.Run allocates %.1f times per run, want 0", tc.inputs, avg)
		}
	}
}

// TestSharedNetworkConcurrentRuns pins the Network doc's promise: one
// adapter shared by concurrent Runners. It needs -race to bite (CI's race
// job runs it): a route cache filled lazily by whichever run asks first is
// exactly what it catches.
func TestSharedNetworkConcurrentRuns(t *testing.T) {
	for _, build := range []func() *Network{
		func() *Network { return NewButterflyNet(16) },
		func() *Network { return NewTorusNet(4, 4) },
	} {
		// The oracle runs on a private copy, so the shared adapter is
		// untouched until the concurrent runs start.
		cfg := baseCfg()
		cfg.Net = build()
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Net = build()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := Run(cfg)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: concurrent run on a shared Network: %+v, %v; want %+v", cfg.Net.Label, got, err, want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestRouteOnlyNetwork: a Network without AppendRoute, the one router
// the Runner calls, is refused up front.
func TestRouteOnlyNetwork(t *testing.T) {
	cfg := baseCfg()
	custom := *cfg.Net
	custom.AppendRoute = nil
	cfg.Net = &custom
	if _, err := Run(cfg); err == nil {
		t.Error("a Network without AppendRoute was accepted")
	}
}
