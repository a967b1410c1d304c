package vcsim_test

// An external test: it drives the simulator the way every open-loop study,
// benchmark workload and daemon job does, through a traffic.Runner, which
// the vcsim package itself cannot import.

import (
	"errors"
	"runtime"
	"testing"

	"wormhole/internal/graph"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// TestRetainedBytesPerMessage turns "bytes kept per message ever injected"
// into a gate. A long-lived Sim keeps one worm record per message and lets
// go of everything else a message used when it finishes (its arena buffer
// is recycled), so the live heap may grow by the record and nothing more:
// at most WormBytes + 8 per message. One Runner is paused past a warm-up —
// so scratch, freelists and wait queues have reached their working size —
// and again about 50k messages later, both times just after the worm that
// opened a fresh chunk, so the count covers whole chunks.
func TestRetainedBytesPerMessage(t *testing.T) {
	for _, arch := range []struct {
		name   string
		depth  int
		shared bool
	}{{"rigid", 1, false}, {"deep shared pool", 4, true}} {
		t.Run(arch.name, func(t *testing.T) {
			net := *traffic.NewButterflyNet(64)
			injected := 0
			route := net.AppendRoute
			net.AppendRoute = func(buf graph.Path, src, dst int) graph.Path {
				injected++ // the Runner routes each message once, right before injecting it
				return route(buf, src, dst)
			}
			errPause := errors.New("pause")
			pauseAt := 2 * vcsim.WormsPerChunk
			r, err := traffic.NewRunner(traffic.Config{
				Net: &net, VirtualChannels: 2, LaneDepth: arch.depth, SharedPool: arch.shared,
				MessageLength: 4, Rate: 0.25, Measure: 1 << 20, Seed: 17,
				OnStep: func(int) error {
					if injected > pauseAt {
						return errPause
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			live := func() uint64 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			if _, err := r.Run(); !errors.Is(err, errPause) {
				t.Fatalf("warm-up did not pause: %v", err)
			}
			n0, h0 := injected, live()
			pauseAt += 12 * vcsim.WormsPerChunk
			if _, err := r.Resume(); !errors.Is(err, errPause) {
				t.Fatalf("measured stretch did not pause: %v", err)
			}
			n1, h1 := injected, live()
			runtime.KeepAlive(r) // or the last GC collects the Runner, Sim and all
			perMsg := (float64(h1) - float64(h0)) / float64(n1-n0)
			t.Logf("%d messages: live heap +%d bytes, %.1f bytes per message (worm record %d bytes)",
				n1-n0, h1-h0, perMsg, vcsim.WormBytes)
			if budget := float64(vcsim.WormBytes + 8); perMsg > budget {
				t.Errorf("the Sim keeps %.1f bytes per message ever injected, budget %.0f (the %d-byte worm record + 8): "+
					"something besides the record outlives its message — every T12–T16 point, benchmark "+
					"workload and daemon job pays it per message (≈ 0.38 MB of knee-deep peak RSS per byte)",
					perMsg, budget, vcsim.WormBytes)
			}
		})
	}
}
