package traffic

// BenchmarkRunnerProcess: one Run of a reused Runner on a 4096-input
// butterfly (B = 2, L = 4, uniform destinations, ArbAge) at 0.02
// messages per input per step — the sparse-wide operating point — once
// per injection process. Poisson visits only the endpoints that have an
// arrival in a step; Bernoulli and OnOff draw for, and carry state of,
// every endpoint on every step, so they show what the injection window
// costs when its per-step work is O(n) rather than O(arrivals).
//
//	go test -run '^$' -bench RunnerProcess ./internal/traffic

import (
	"runtime"
	"sync"
	"testing"

	"wormhole/internal/vcsim"
)

func BenchmarkRunnerProcess(b *testing.B) {
	net := NewButterflyNet(4096)
	for _, proc := range []Process{Bernoulli, Poisson, OnOff} {
		name := proc.String()
		if proc == OnOff {
			name = "onoff"
		}
		b.Run(name, func(b *testing.B) {
			r, err := NewRunner(Config{
				Net:             net,
				VirtualChannels: 2,
				MessageLength:   4,
				Arbitration:     vcsim.ArbAge,
				Process:         proc,
				Rate:            0.02,
				Pattern:         Uniform,
				Warmup:          64,
				Measure:         1024,
				Drain:           1024,
				MaxBacklog:      65536,
				Seed:            17,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := r.Run() // sizes every arena: the timed runs allocate nothing
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = r.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.Steps), "ns/step")
		})
	}
}

// BenchmarkRunnerYield: wormholed's sweep shape — a 64-input butterfly,
// Poisson at 0.1, 0.2 and 0.3, windows 512/2048/8192 — with the OnStep
// hook wormholed and core give a cancellable job, a yield every 8 steps.
// "one" runs one job, the warm-up case with a core to spare; "two" runs
// two at once, so no core is idle. Small steps and frequent yields are
// where the arrival producer's hand-offs cost the most.
//
//	go test -run '^$' -bench RunnerYield -cpu 2 ./internal/traffic
func BenchmarkRunnerYield(b *testing.B) {
	net := NewButterflyNet(64)
	yield := func(step int) error {
		if step%8 == 0 {
			runtime.Gosched()
		}
		return nil
	}
	for _, jobs := range []int{1, 2} {
		b.Run(map[int]string{1: "one", 2: "two"}[jobs], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := 0; j < jobs; j++ {
					wg.Add(1)
					go func(seed uint64) {
						defer wg.Done()
						for _, rate := range []float64{0.1, 0.2, 0.3} {
							if _, err := Run(Config{
								Net: net, VirtualChannels: 2, MessageLength: 6, Arbitration: vcsim.ArbAge,
								Process: Poisson, Rate: rate, Warmup: 512, Measure: 2048, Drain: 8192,
								Window: 512, Seed: seed, OnStep: yield,
							}); err != nil {
								b.Error(err)
							}
						}
					}(uint64(17000 + j))
				}
				wg.Wait()
			}
		})
	}
}
