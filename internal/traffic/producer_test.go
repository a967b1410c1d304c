package traffic

// The arrival producer's contracts: how far it runs ahead of the stepper
// never shows in a snapshot or a Result, and no way out of Run or Resume
// leaves it running.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"wormhole/internal/graph"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/vcsim"
)

// leadRun is one run that snapshots from OnStep after every step, and
// sleeps on some steps when sleeps is non-nil, so the producer's lead
// varies from step to step.
type leadRun struct {
	res     Result
	windows []telemetry.WindowStats
	digests [][sha256.Size]byte // of the snapshot taken after step i+1
	// One snapshot taken mid-chunk, and its step.
	mid     []byte
	midStep int
	// Steps whose snapshot was taken mid-chunk, and at a chunk's end.
	inside, boundary int
	// Whether a chunk being consumed held a step it did not finish.
	split bool
}

func runWithLead(t *testing.T, cfg Config, sleeps *rng.Source) leadRun {
	t.Helper()
	var out leadRun
	var r *Runner
	var buf bytes.Buffer
	cfg.OnStep = func(step int) error {
		buf.Reset()
		if err := r.Snapshot(&buf); err != nil {
			return err
		}
		out.digests = append(out.digests, sha256.Sum256(buf.Bytes()))
		if p := &r.prod; p.running && p.cur != nil {
			for _, sg := range p.cur.segs {
				out.split = out.split || int(sg.to) < cfg.Net.Endpoints
			}
			out.inside++
			if out.mid == nil && step > cfg.Warmup {
				out.mid, out.midStep = append([]byte(nil), buf.Bytes()...), step
			}
		} else if p.running {
			out.boundary++
		}
		if sleeps != nil && sleeps.Intn(3) == 0 {
			time.Sleep(time.Duration(sleeps.Intn(201)) * time.Microsecond)
		}
		return nil
	}
	var err error
	if r, err = NewRunner(cfg); err != nil {
		t.Fatal(err)
	}
	if out.res, err = r.Run(); err != nil {
		t.Fatal(err)
	}
	out.windows = append(out.windows, r.Windows()...)
	return out
}

// TestArrivalLeadInvariance: a run whose OnStep hook sleeps a
// seed-chosen 0–200 µs on some steps, so the producer's lead varies,
// must snapshot the same bytes after every step — mid-chunk and at chunk
// ends alike — and end with the same Result as the run with no sleeps;
// and a Runner restored from a mid-chunk snapshot must finish the run
// exactly as the uninterrupted one did. On the 8-input butterfly a chunk
// spans many steps; on the 1024-input one, loaded to 0.25, a step spans
// several chunks.
func TestArrivalLeadInvariance(t *testing.T) {
	for _, proc := range []Process{Bernoulli, Poisson, OnOff} {
		for _, pat := range []Pattern{Uniform, Hotspot} {
			cfg := runnerOracleCfg(proc, pat)
			name := proc.String() + "/" + pat.String()
			if pat == Hotspot {
				name += "/wide"
				cfg.Net = NewButterflyNet(1024)
				cfg.Rate, cfg.Warmup, cfg.Measure, cfg.Drain, cfg.Window = 0.25, 4, 12, 0, 8
			}
			want := runWithLead(t, cfg, nil)
			got := runWithLead(t, cfg, rng.New(uint64(proc)<<8|uint64(pat)))
			if got.inside == 0 || got.boundary == 0 || got.split != (pat == Hotspot) {
				t.Fatalf("%s: %d snapshots mid-chunk and %d at a chunk's end, a step split across chunks: %v",
					name, got.inside, got.boundary, got.split)
			}
			if len(got.digests) != len(want.digests) {
				t.Fatalf("%s: %d steps with sleeps, %d without", name, len(got.digests), len(want.digests))
			}
			for i := range want.digests {
				if got.digests[i] != want.digests[i] {
					t.Fatalf("%s: the snapshot after step %d depends on the producer's lead", name, i+1)
				}
			}
			if !reflect.DeepEqual(got.res, want.res) || !reflect.DeepEqual(got.windows, want.windows) {
				t.Fatalf("%s: the Result depends on the producer's lead\nwant %+v\n got %+v", name, want.res, got.res)
			}

			restored, err := RestoreRunner(cfg, bytes.NewReader(got.mid))
			if err != nil {
				t.Fatalf("%s: restore from step %d: %v", name, got.midStep, err)
			}
			res, err := restored.Resume()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, want.res) || !reflect.DeepEqual(restored.Windows(), want.windows) {
				t.Fatalf("%s: resumed from the mid-chunk snapshot at step %d\nwant %+v\n got %+v", name, got.midStep, want.res, res)
			}
		}
	}
}

// TestResumeLeavesNoGoroutine: every way out of Run and Resume — a
// finished run, a drain cut short, an early stop, a pause, an error, a
// deadlock — has stopped the arrival producer, and so has each entry
// point built on them.
func TestResumeLeavesNoGoroutine(t *testing.T) {
	badRoute := *NewButterflyNet(8)
	badRoute.AppendRoute = nil
	badRoute.Route = func(src, dst int) graph.Path { return graph.Path{graph.EdgeID(1 << 30)} }
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
		cfg := smallCfg()
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
		cfg := runnerOracleCfg(proc, Uniform)
		cfg.Window = 0
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
