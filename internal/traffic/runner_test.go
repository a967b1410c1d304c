package traffic

import (
	"reflect"
	"sync"
	"testing"

	"wormhole/internal/vcsim"
)

// TestRunnerReplayByteIdentical pins the Runner's reuse contract: every
// Run() of one Runner — and the one-shot Run wrapper — produces deeply
// equal Results, across processes, patterns, buffer architectures, and
// both steppers. Reset hygiene bugs (leaked credits, stale queues, RNG
// drift) show up here as run-to-run divergence.
func TestRunnerReplayByteIdentical(t *testing.T) {
	base := Config{
		Net:             NewButterflyNet(16),
		VirtualChannels: 2,
		MessageLength:   4,
		Arbitration:     vcsim.ArbAge,
		Process:         Poisson,
		Rate:            0.25,
		Pattern:         Uniform,
		Warmup:          32,
		Measure:         128,
		Drain:           512,
		MaxBacklog:      4096,
		Seed:            99,
	}
	configs := map[string]func(*Config){
		"poisson-uniform": func(c *Config) {},
		"bernoulli-transpose": func(c *Config) {
			c.Process = Bernoulli
			c.Pattern = Transpose
		},
		"onoff-hotspot": func(c *Config) {
			c.Process = OnOff
			c.Pattern = Hotspot
			c.Rate = 0.1
		},
		"deep-shared": func(c *Config) {
			c.LaneDepth = 4
			c.SharedPool = true
		},
		"naive-oracle": func(c *Config) {
			c.NaiveScan = true
			c.Arbitration = vcsim.ArbRandom
		},
	}
	for name, mutate := range configs {
		cfg := base
		mutate(&cfg)
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 3; i++ {
			got, err := r.Run()
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: reused run %d differs from fresh run\nfresh: %+v\nreuse: %+v", name, i, want, got)
			}
		}
	}
}

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
		cfg := smallCfg()
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

// TestRouteOnlyNetwork: a caller-built Network that sets only Route runs
// through the same loop as the adapters and produces the same Result; one
// with no router at all is refused up front.
func TestRouteOnlyNetwork(t *testing.T) {
	cfg := smallCfg()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	custom := *cfg.Net
	custom.AppendRoute = nil
	cfg.Net = &custom
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Route-only network diverged\nwant: %+v\n got: %+v", want, got)
	}
	custom.Route = nil
	if _, err := Run(cfg); err == nil {
		t.Error("a Network with neither Route nor AppendRoute was accepted")
	}
}
