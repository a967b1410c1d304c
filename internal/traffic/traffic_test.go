package traffic

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"wormhole/internal/telemetry"
	"wormhole/internal/vcsim"
)

// baseCfg is the tests' one base Config: a 16-input butterfly at B = 2
// under ArbAge, Poisson at 0.05. Tests and checker rows vary it.
func baseCfg() Config {
	return Config{
		Net:             NewButterflyNet(16),
		VirtualChannels: 2,
		MessageLength:   4,
		Arbitration:     vcsim.ArbAge,
		Process:         Poisson,
		Rate:            0.05,
		Pattern:         Uniform,
		Warmup:          64,
		Measure:         256,
		Drain:           1024,
		Seed:            11,
	}
}

// TestZeroLoadLatency: at a vanishing rate, latency approaches the
// contention-free value D + L − 1.
func TestZeroLoadLatency(t *testing.T) {
	cfg := baseCfg()
	cfg.Rate = 0.005
	cfg.Measure = 2048
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(4 + cfg.MessageLength - 1) // log2(16) levels + L − 1
	if res.MeanLatency < ideal {
		t.Errorf("mean latency %g below the physical floor %g", res.MeanLatency, ideal)
	}
	if res.MeanLatency > ideal*1.25 {
		t.Errorf("mean latency %g at near-zero load, want ≈ %g", res.MeanLatency, ideal)
	}
	if res.Saturated {
		t.Error("near-zero load must not be saturated")
	}
	if res.TrackedDone != res.Tracked {
		t.Errorf("only %d/%d tracked messages completed", res.TrackedDone, res.Tracked)
	}
}

// TestZeroDrainNotSaturated: with Drain = 0 the steady-state in-flight
// population is always stranded (Truncated), but a trivially sustainable
// load must still not be called saturated.
func TestZeroDrainNotSaturated(t *testing.T) {
	cfg := baseCfg()
	cfg.Rate = 0.02
	cfg.Drain = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("2%% load with Drain=0 flagged saturated: %+v", res)
	}
	if !res.Truncated || res.Backlog == 0 {
		t.Fatalf("Drain=0 should strand the in-flight tail: %+v", res)
	}
}

// TestDeadlockedBacklogVisible: a deadlocked run must report the frozen
// messages as backlog, not an empty network.
func TestDeadlockedBacklogVisible(t *testing.T) {
	cfg := Config{
		Net:             NewTorusNet(4, 4),
		VirtualChannels: 1,
		MessageLength:   6,
		Process:         Bernoulli,
		Rate:            0.8,
		Pattern:         Uniform,
		Warmup:          0,
		Measure:         2048,
		Drain:           2048,
		Seed:            1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Skip("this seed did not deadlock; backlog visibility untestable here")
	}
	if res.Backlog == 0 {
		t.Fatalf("deadlocked run reports zero backlog: %+v", res)
	}
	if !res.Saturated {
		t.Error("deadlocked run must be saturated")
	}
}

// TestThroughputConservation: well below saturation, accepted ≈ offered.
func TestThroughputConservation(t *testing.T) {
	cfg := baseCfg()
	cfg.VirtualChannels = 4
	cfg.Rate = 0.08
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("rate %g with B=4 should be sustainable (accepted %g)", cfg.Rate, res.Accepted)
	}
	if math.Abs(res.Accepted-res.Offered)/res.Offered > 0.15 {
		t.Errorf("accepted %g strays from offered %g", res.Accepted, res.Offered)
	}
}

// TestSaturationDetectedAtOverload: a B=1 butterfly cannot sustain one
// message per endpoint per step.
func TestSaturationDetectedAtOverload(t *testing.T) {
	cfg := baseCfg()
	cfg.VirtualChannels = 1
	cfg.Process = Bernoulli
	cfg.Rate = 0.9
	cfg.MaxBacklog = 2048
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatalf("rate 0.9 at B=1 must saturate: %+v", res)
	}
}

// TestSaturationRateMonotoneInB: the knee must move right as virtual
// channels are added — the open-loop restatement of the paper's benefit.
func TestSaturationRateMonotoneInB(t *testing.T) {
	base := baseCfg()
	base.Warmup = 64
	base.Measure = 192
	base.Drain = 512
	base.MaxBacklog = 1024
	search := SearchOptions{Hi: 2, Iters: 7}
	rate := map[int]float64{}
	for _, b := range []int{1, 4} {
		cfg := base
		cfg.VirtualChannels = b
		sr, err := SaturationRate(cfg, search)
		if err != nil {
			t.Fatal(err)
		}
		rate[b] = sr.Rate
	}
	if rate[4] <= rate[1] {
		t.Errorf("saturation rate not increasing in B: B=1 → %g, B=4 → %g", rate[1], rate[4])
	}
	if rate[1] <= 0 {
		t.Errorf("B=1 saturation rate %g: even trivial load rejected", rate[1])
	}
}

// TestSaturationSearchDeterminism: two searches agree probe for probe.
func TestSaturationSearchDeterminism(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxBacklog = 512
	cfg.Measure = 128
	opts := SearchOptions{Hi: 1, Iters: 5}
	a, err := SaturationRate(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SaturationRate(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("searches differ:\n%+v\n%+v", a, b)
	}
	if len(a.Probes) == 0 {
		t.Fatal("no probes recorded")
	}
}

// TestSaturationRateMatchesFreshRuns: the search keeps one Runner and
// re-targets it per probe; every probe must still be what a fresh Run of
// (rate, the documented (cfg.Seed, i) seed) reports, and the search's
// Metrics the Merge of those Runs' registries, each of its own.
// ArbRandom makes the seed reach the simulator's shuffle, not just the
// injectors.
func TestSaturationRateMatchesFreshRuns(t *testing.T) {
	cfg := baseCfg()
	cfg.Arbitration = vcsim.ArbRandom
	cfg.MaxBacklog = 512
	cfg.Measure = 128
	cfg.Metrics = telemetry.NewMetrics()
	sr, err := SaturationRate(cfg, SearchOptions{Hi: 1, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Probes) != 6 {
		t.Fatalf("%d probes, want the bracket probe and 5 bisections", len(sr.Probes))
	}
	merged := telemetry.NewMetrics()
	for i, p := range sr.Probes {
		c := cfg
		c.Rate = p.Rate
		c.Seed = cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
		c.Metrics = telemetry.NewMetrics()
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := (Probe{Rate: p.Rate, Accepted: r.Accepted, MeanLat: r.MeanLatency, Saturated: r.Saturated}); p != want {
			t.Errorf("probe %d: search saw %+v, a fresh run gives %+v", i, p, want)
		}
		merged.Merge(c.Metrics)
	}
	if got, want := cfg.Metrics.Snapshot(), merged.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("the search's metrics differ from the Merge of fresh runs'\n got %+v\nwant %+v", got, want)
	}
}

// TestSaturationSpeculationMatchesSerial: a search that runs the next
// probe on a second Runner returns what the serial search at one P
// returns, with the same metrics, under arbitration the seed does and
// does not reach; it adopts a probe it ran ahead, which OnStep does not
// see; two such searches call OnStep with the same steps; and a traced
// search runs serially, every probe under OnStep.
func TestSaturationSpeculationMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	opts := SearchOptions{Hi: 1, Iters: 6}
	type search struct {
		res   SearchResult
		met   telemetry.Snapshot
		steps []int // OnStep's, in call order
	}
	run := func(cfg Config, procs int) search {
		runtime.GOMAXPROCS(procs)
		var s search
		cfg.Metrics = telemetry.NewMetrics()
		cfg.OnStep = func(step int) error {
			s.steps = append(s.steps, step)
			return nil
		}
		var err error
		if s.res, err = SaturationRate(cfg, opts); err != nil {
			t.Fatal(err)
		}
		s.met = cfg.Metrics.Snapshot()
		return s
	}
	// observed counts the probes OnStep saw: each calls it at step 1.
	observed := func(s search) int {
		n := 0
		for _, step := range s.steps {
			if step == 1 {
				n++
			}
		}
		return n
	}
	cfg := baseCfg()
	cfg.Measure, cfg.Drain, cfg.MaxBacklog = 128, 256, 256
	for _, arb := range []vcsim.Policy{vcsim.ArbByID, vcsim.ArbRandom} {
		cfg.Arbitration = arb
		serial, spec := run(cfg, 1), run(cfg, 2)
		if !reflect.DeepEqual(spec.res, serial.res) || !reflect.DeepEqual(spec.met, serial.met) {
			t.Fatalf("%s: at 2 Ps the search returned %+v with metrics %+v;\nat 1 P %+v with %+v", arb, spec.res, spec.met, serial.res, serial.met)
		}
		if n := observed(serial); n != len(serial.res.Probes) {
			t.Fatalf("%s: OnStep saw %d of the serial search's %d probes", arb, n, len(serial.res.Probes))
		}
		if n := observed(spec); n >= len(spec.res.Probes) {
			t.Fatalf("%s: OnStep saw %d of %d probes: the search adopted none it ran ahead", arb, n, len(spec.res.Probes))
		}
		if again := run(cfg, 2); !slices.Equal(again.steps, spec.steps) {
			t.Fatalf("%s: two searches at 2 Ps called OnStep with other steps", arb)
		}
	}
	cfg.Trace = telemetry.NewTrace(64)
	if traced := run(cfg, 2); observed(traced) != len(traced.res.Probes) {
		t.Fatalf("OnStep saw %d of a traced search's %d probes: it ran ahead", observed(traced), len(traced.res.Probes))
	}
}

// TestPermutationPatterns: transpose and bit-reverse must be bijections
// on the endpoint space (otherwise they are not permutation traffic).
func TestPermutationPatterns(t *testing.T) {
	for _, pat := range []Pattern{Transpose, BitReverse} {
		for _, n := range []int{8, 16, 64} {
			cfg := Config{Net: NewButterflyNet(n), Pattern: pat}
			seen := map[int]bool{}
			for s := 0; s < n; s++ {
				d := cfg.dest(s, nil) // deterministic patterns ignore the rng
				if d < 0 || d >= n {
					t.Fatalf("%s n=%d: dest(%d) = %d out of range", pat, n, s, d)
				}
				seen[d] = true
			}
			if len(seen) != n {
				t.Errorf("%s n=%d: only %d distinct destinations", pat, n, len(seen))
			}
		}
	}
}

// TestOnOffMatchesMeanRate: the bursty process must still deliver the
// configured long-run rate.
func TestOnOffMatchesMeanRate(t *testing.T) {
	cfg := baseCfg()
	cfg.Process = OnOff
	cfg.Rate = 0.06
	cfg.VirtualChannels = 4
	cfg.Warmup = 128
	cfg.Measure = 4096
	cfg.Drain = 2048
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(res.Tracked) / (float64(cfg.Net.Endpoints) * float64(cfg.Measure))
	if math.Abs(got-cfg.Rate)/cfg.Rate > 0.1 {
		t.Errorf("on/off injected rate %g, want ≈ %g", got, cfg.Rate)
	}
}

// TestMeshAndTorusNetworks: the engine is topology-agnostic; a mesh run
// completes, and a torus at B=1 is allowed to deadlock but must say so.
func TestMeshAndTorusNetworks(t *testing.T) {
	mesh := Config{
		Net:             NewMeshNet(4, 4),
		VirtualChannels: 2,
		MessageLength:   3,
		Process:         Bernoulli,
		Rate:            0.05,
		Pattern:         Uniform,
		Warmup:          32,
		Measure:         256,
		Drain:           1024,
		Seed:            5,
	}
	res, err := Run(mesh)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 || res.Deadlocked {
		t.Fatalf("mesh run: %+v", res)
	}

	torus := mesh
	torus.Net = NewTorusNet(4, 4)
	torus.VirtualChannels = 1
	torus.Rate = 0.5
	torus.MaxBacklog = 4096
	tres, err := Run(torus)
	if err != nil {
		t.Fatal(err)
	}
	if tres.Deadlocked && !tres.Saturated {
		t.Error("a deadlocked run must be marked saturated")
	}
}

// TestBufferArchitecturePlumbing drives the open-loop engine across the
// (LaneDepth, SharedPool) grid: every architecture must run and sustain
// a load the shallowest buffers already sustain. (Accepted throughput
// below the knee tracks offered for every depth, so point-wise
// comparisons only see window-edge noise; the monotone quantity — the
// saturation rate — is pinned by the T13 tests.) Determinism and the
// NaiveScan identity on deep lanes are checkRunner's.
func TestBufferArchitecturePlumbing(t *testing.T) {
	base := baseCfg()
	base.Rate = 0.3
	for _, depth := range []int{1, 2, 4} {
		for _, shared := range []bool{false, true} {
			cfg := base
			cfg.LaneDepth = depth
			cfg.SharedPool = shared
			a, err := Run(cfg)
			if err != nil {
				t.Fatalf("d=%d shared=%v: %v", depth, shared, err)
			}
			if a.Injected == 0 || a.TrackedDone == 0 {
				t.Errorf("d=%d shared=%v: no traffic flowed: %+v", depth, shared, a)
			}
			if a.Saturated {
				t.Errorf("d=%d shared=%v: saturated at a load d=1 sustains: %+v", depth, shared, a)
			}
		}
	}
}

// TestConfigValidation exercises the error paths.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Net = nil },
		func(c *Config) { c.VirtualChannels = 0 },
		func(c *Config) { c.MessageLength = 0 },
		func(c *Config) { c.Measure = 0 },
		func(c *Config) { c.Rate = 0 },
		func(c *Config) { c.Rate = 1.5; c.Process = Bernoulli },
		func(c *Config) { c.Drain = -1 },
		func(c *Config) { c.Pattern = Transpose; c.Net = NewMeshNet(3, 3) },
		func(c *Config) { c.LaneDepth = -1 },
		func(c *Config) { c.Pattern, c.HotspotCount = Hotspot, 17 },
		func(c *Config) { c.Pattern, c.HotspotCount = Hotspot, 1<<62 },
	}
	for i, mutate := range bad {
		cfg := baseCfg()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d: expected a validation error", i)
		}
	}
	// A lane count past the engine's layout is the engine's typed error,
	// not a panic: wormholed validates a submission by building a Runner.
	cfg := baseCfg()
	cfg.VirtualChannels, cfg.LaneDepth = 1<<30, 4
	if _, err := NewRunner(cfg); !errors.Is(err, vcsim.ErrBadConfig) {
		t.Errorf("NewRunner with 2^30 lanes: err = %v, want vcsim.ErrBadConfig", err)
	}
}

// TestNonFiniteRejected: NaN compares false against every range check, so
// a non-finite rate, burst mean or search bracket used to pass validation
// and come back as a confident zero-injection "sustained" result.
func TestNonFiniteRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"Rate NaN bernoulli", func(c *Config) { c.Process = Bernoulli; c.Rate = nan }},
		{"Rate NaN poisson", func(c *Config) { c.Process = Poisson; c.Rate = nan }},
		{"Rate NaN on-off", func(c *Config) { c.Process = OnOff; c.Rate = nan }},
		{"Rate +Inf", func(c *Config) { c.Rate = inf }},
		{"Rate -Inf", func(c *Config) { c.Rate = -inf }},
		{"OnMean NaN", func(c *Config) { c.Process = OnOff; c.OnMean = nan }},
		{"OnMean +Inf", func(c *Config) { c.Process = OnOff; c.OnMean = inf }},
		{"OffMean NaN", func(c *Config) { c.Process = OnOff; c.OffMean = nan }},
		{"OffMean +Inf", func(c *Config) { c.Process = OnOff; c.OffMean = inf }},
		{"HotspotFraction NaN", func(c *Config) { c.Pattern = Hotspot; c.HotspotFraction = nan }},
		{"HotspotFraction +Inf", func(c *Config) { c.Pattern = Hotspot; c.HotspotFraction = inf }},
	} {
		cfg := baseCfg()
		tc.mutate(&cfg)
		if res, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted, returned %+v", tc.name, res)
		}
	}
	for _, tc := range []struct {
		name string
		opts SearchOptions
	}{
		{"Hi NaN", SearchOptions{Hi: nan}},
		{"Hi +Inf", SearchOptions{Hi: inf}},
	} {
		cfg := baseCfg()
		cfg.MaxBacklog = 256
		tc.opts.Iters = 2
		if res, err := SaturationRate(cfg, tc.opts); err == nil {
			t.Errorf("SaturationRate %s: accepted, returned rate %g after %d probes", tc.name, res.Rate, len(res.Probes))
		}
	}
}

// TestPublishedWindowsCostLinear: publishing the per-window series at
// every window boundary costs memory linear in the window count (a copy
// per publication made it quadratic, and a tenant picks the count with
// "window":1), and a published series is never rewritten, not even by
// the runner's next run at another rate.
func TestPublishedWindowsCostLinear(t *testing.T) {
	run := func(r *Runner) {
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	}
	allocated := func(windows int) uint64 {
		cfg := baseCfg()
		cfg.Warmup, cfg.Measure, cfg.Drain = 0, windows, 0
		cfg.Window, cfg.Publish = 1, &telemetry.Publisher{}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(r)
		runtime.ReadMemStats(&after)

		first, _ := cfg.Publish.Latest()
		held := append([]telemetry.WindowStats(nil), first.Windows...)
		if err := r.retarget(2*cfg.Rate, cfg.Seed+1); err != nil {
			t.Fatal(err)
		}
		run(r)
		if !reflect.DeepEqual(first.Windows, held) {
			t.Errorf("%d windows: the next run rewrote a published series", windows)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(2000), allocated(4000)
	if large >= 3*small {
		t.Errorf("4000 windows allocated %d bytes, 2000 allocated %d: want under 3×", large, small)
	}
}
