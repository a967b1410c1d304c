package traffic

// The arrival producer's contracts beside checkRunner's lead property
// (how far it runs ahead never shows in a snapshot or a Result): no way
// out of Run or Resume leaves it running, and the stepper's rewound
// sources stand in exactly for the steps it records nothing for.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"wormhole/internal/graph"
	"wormhole/internal/rng"
	"wormhole/internal/vcsim"
)

// TestResumeLeavesNoGoroutine: every way out of Run and Resume — a
// finished run, a drain cut short, an early stop, a pause, an error, a
// deadlock — has stopped the arrival producer, and so has each entry
// point built on them.
func TestResumeLeavesNoGoroutine(t *testing.T) {
	badRoute := *NewButterflyNet(8)
	badRoute.AppendRoute = func(buf graph.Path, src, dst int) graph.Path { return append(buf, graph.EdgeID(1<<30)) }
	torus := Config{ // TestDeadlockedBacklogVisible's
		Net: NewTorusNet(4, 4), VirtualChannels: 1, MessageLength: 6, Process: Bernoulli,
		Rate: 0.8, Pattern: Uniform, Measure: 2048, Drain: 2048, Seed: 1,
	}
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
		run  func(*Runner) (Result, error)
		want func(Result, error) bool
	}{
		{"finish", nil, nil, func(res Result, err error) bool { return err == nil && res.Backlog == 0 }},
		{"drain end", func(c *Config) { c.Rate, c.Drain = 0.3, 0 }, nil,
			func(res Result, err error) bool { return err == nil && res.Truncated }},
		{"early stop", func(c *Config) { c.Rate, c.MaxBacklog = 0.9, 8 }, nil,
			func(res Result, err error) bool { return err == nil && res.EarlyStop }},
		{"pause", func(c *Config) {
			c.OnStep = func(step int) error {
				if step == 100 {
					return errPause
				}
				return nil
			}
		}, nil, func(_ Result, err error) bool { return errors.Is(err, errPause) }},
		{"inject error", func(c *Config) { c.Net = &badRoute }, nil,
			func(_ Result, err error) bool { return errors.Is(err, vcsim.ErrBadMessage) }},
		{"deadlock", func(c *Config) { *c = torus }, nil,
			func(res Result, err error) bool { return err == nil && res.Deadlocked }},
		{"traffic.Run", nil, func(r *Runner) (Result, error) { return Run(r.cfg) },
			func(_ Result, err error) bool { return err == nil }},
		{"SaturationRate", func(c *Config) { c.MaxBacklog = 256 },
			func(r *Runner) (Result, error) {
				_, err := SaturationRate(r.cfg, SearchOptions{Iters: 4})
				return Result{}, err
			}, func(_ Result, err error) bool { return err == nil }},
		// OnStep fails in the probe after the first sustained one, while
		// the search runs the probe after that on a second Runner: at
		// least two Ps, whatever the test runs at.
		{"SaturationRate hook error", func(c *Config) { c.MaxBacklog = 256 },
			func(r *Runner) (Result, error) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
				opts := SearchOptions{Hi: 1, Iters: 6}
				sr, err := SaturationRate(r.cfg, opts)
				if err != nil {
					return Result{}, err
				}
				at := slices.IndexFunc(sr.Probes, func(p Probe) bool { return !p.Saturated }) + 1
				if at == 0 || at >= len(sr.Probes)-1 {
					return Result{}, fmt.Errorf("no probe runs beside a speculative one: %+v", sr.Probes)
				}
				cfg, probes := r.cfg, 0
				cfg.OnStep = func(step int) error {
					if step == 1 {
						probes++
					}
					if probes == at+1 && step == 16 {
						return errPause
					}
					return nil
				}
				_, err = SaturationRate(cfg, opts)
				return Result{}, err
			}, func(_ Result, err error) bool { return errors.Is(err, errPause) }},
		{"RestoreRunner then Resume", nil, func(r *Runner) (Result, error) {
			cfg := r.cfg
			cfg.OnStep = func(step int) error {
				if step == 100 {
					return errPause
				}
				return nil
			}
			paused, err := NewRunner(cfg)
			if err != nil {
				return Result{}, err
			}
			if _, err := paused.Run(); !errors.Is(err, errPause) {
				return Result{}, err
			}
			var blob bytes.Buffer
			if err := paused.Snapshot(&blob); err != nil {
				return Result{}, err
			}
			restored, err := RestoreRunner(r.cfg, &blob)
			if err != nil {
				return Result{}, err
			}
			return restored.Resume()
		}, func(res Result, err error) bool { return err == nil && res.Backlog == 0 }},
	} {
		cfg := baseCfg()
		if tc.cfg != nil {
			tc.cfg(&cfg)
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		run := tc.run
		if run == nil {
			run = (*Runner).Run
		}
		before := runtime.NumGoroutine()
		res, err := run(r)
		if !tc.want(res, err) {
			t.Fatalf("%s: the run did not end the way this case needs: %+v, %v", tc.name, res, err)
		}
		// The producer's last act is its send, so it may still be on its
		// way out when Resume returns. Only a count above before is a
		// leak: a goroutine of an earlier test may exit meanwhile.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after the call, %d before", tc.name, n, before)
		}
	}
}

// TestQuietDraws: a step in which arrivals returns 0 and leaves the ON
// state as it was draws exactly quietDraws outputs and moves nothing
// else. The producer records no state for such a step and the stepper's
// rewound sources stand in for it, so a count off by one output would
// corrupt every later snapshot of that endpoint.
func TestQuietDraws(t *testing.T) {
	for _, proc := range []Process{Bernoulli, Poisson, OnOff} {
		for _, rate := range []float64{0.02, 0.2} {
			cfg := Config{Process: proc, Rate: rate, OnMean: 3, OffMean: 5}
			pp := cfg.processParams()
			quiet := 0
			for e := uint64(0); e < 64; e++ {
				src := rng.New(e)
				in := newInjector(&cfg, src)
				for step := 0; step < 200; step++ {
					before, was := *src, in
					k := in.arrivals(&cfg, &pp, src, step)
					if k != 0 || in.on != was.on {
						continue
					}
					quiet++
					before.Advance(pp.quietDraws(&was))
					if *src != before || in != was {
						t.Fatalf("%s at %g: quiet step %d of endpoint %d drew other than %d outputs or moved its state",
							proc, rate, step, e, pp.quietDraws(&was))
					}
				}
			}
			if quiet == 0 {
				t.Fatalf("%s at %g: no quiet step to check", proc, rate)
			}
		}
	}
}

// TestHeldOffPerStepEndpoint: a snapshot may give a per-step endpoint a
// next above the current step, and RestoreRunner accepts it. The
// endpoint is then not due, and draws nothing, until that step. Its
// source as a snapshot would carry it must follow an inline replay of
// that stream after every step, on the Runner it was set on and on one
// restored from its snapshot.
func TestHeldOffPerStepEndpoint(t *testing.T) {
	const e, pauseAt, next = 3, 10, 20.5
	for _, proc := range []Process{Bernoulli, OnOff} {
		cfg := wireGoldenCfg() // less its faults and telemetry, to uniform destinations, with no series
		cfg.Process, cfg.Pattern, cfg.Faults, cfg.Retry, cfg.Metrics, cfg.Window = proc, Uniform, nil, vcsim.RetryPolicy{}, nil, 0
		var r *Runner
		var ref rng.Source
		var refIn injector
		paused := false
		cfg.OnStep = func(step int) error {
			if !paused {
				if step == pauseAt {
					paused = true
					return errPause
				}
				return nil
			}
			if s := step - 1; s < cfg.Warmup+cfg.Measure && next < float64(s+1) {
				for k := refIn.arrivals(&cfg, &r.params, &ref, s); k > 0; k-- {
					cfg.dest(e, &ref)
				}
			}
			if got := r.source(e); got != ref || r.inject[e] != refIn {
				t.Fatalf("%s: after step %d endpoint %d holds %+v %+v, an inline replay %+v %+v",
					proc, step, e, got, r.inject[e], ref, refIn)
			}
			return nil
		}
		var err error
		if r, err = NewRunner(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); !errors.Is(err, errPause) {
			t.Fatalf("%s: no pause: %v", proc, err)
		}
		src := r.source(e)
		r.inject[e].next = next
		r.setSource(e, r.t, src.State())
		var blob bytes.Buffer
		if err := r.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		held := r.inject[e]
		ref, refIn = src, held
		want, err := r.Resume()
		if err != nil {
			t.Fatal(err)
		}
		ref, refIn = src, held
		if r, err = RestoreRunner(cfg, &blob); err != nil {
			t.Fatal(err)
		}
		if res, err := r.Resume(); err != nil || !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: the restored run ended %+v, %v; want %+v", proc, res, err, want)
		}
	}
}
