package vcsim_test

// An external test: it drives the simulator the way every open-loop study,
// benchmark workload and daemon job does, through a traffic.Runner, which
// the vcsim package itself cannot import.

import (
	"errors"
	"runtime"
	"testing"

	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// TestRetainedBytesPerMessage turns "bytes kept per message ever injected"
// into a gate. A message in flight holds a worm record, but once every worm
// of its chunk has finished the chunk is sealed to a few bytes a record and
// given back (seal.go), and everything else a message used is recycled when
// it finishes. So the record is the in-flight cost, and what the live heap
// may grow by per message is the sealed form: at most 8 bytes. One Runner
// is paused past a warm-up — so scratch, freelists, wait queues and spare
// chunks have reached their working size — and again about 50k messages
// later, both times just after the worm that opened a fresh chunk, so the
// count covers whole chunks.
func TestRetainedBytesPerMessage(t *testing.T) {
	for _, arch := range []struct {
		name   string
		depth  int
		shared bool
	}{{"rigid", 1, false}, {"deep shared pool", 4, true}} {
		t.Run(arch.name, func(t *testing.T) {
			errPause := errors.New("pause")
			pauseAt := 2 * vcsim.WormsPerChunk
			var r *traffic.Runner
			r, err := traffic.NewRunner(traffic.Config{
				Net: traffic.NewButterflyNet(64), VirtualChannels: 2, LaneDepth: arch.depth, SharedPool: arch.shared,
				MessageLength: 4, Rate: 0.25, Measure: 1 << 20, Seed: 17,
				OnStep: func(int) error {
					// The simulator's count, read on the stepping goroutine:
					// the Runner routes arrivals ahead on another one.
					if r.Injected() > pauseAt {
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
			n0, h0 := r.Injected(), live()
			pauseAt += 12 * vcsim.WormsPerChunk
			if _, err := r.Resume(); !errors.Is(err, errPause) {
				t.Fatalf("measured stretch did not pause: %v", err)
			}
			n1, h1 := r.Injected(), live()
			runtime.KeepAlive(r) // or the last GC collects the Runner, Sim and all
			perMsg := (float64(h1) - float64(h0)) / float64(n1-n0)
			t.Logf("%d messages: live heap +%d bytes, %.1f bytes per message (a %d-byte worm record while in flight)",
				n1-n0, h1-h0, perMsg, vcsim.WormBytes)
			if budget := 8.0; perMsg > budget {
				t.Errorf("the Sim keeps %.1f bytes per message ever injected, budget %.0f: finished records are "+
					"not sealed, or something besides a sealed record outlives its message — every T12–T16 "+
					"point, benchmark workload and daemon job pays it per message",
					perMsg, budget)
			}
		})
	}
}

// TestRetainedBytesPerEdge turns "what a network costs before it carries a
// message" into a gate. The paper's network is a set of channels, each
// carrying B lanes, so a simulator's per-edge credit state is the model and
// nothing else should cost memory per edge: the graph keeps only its edge
// list (adjacency is an index built on the first query that needs it, and a
// butterfly's labels are computed on demand), and a wait queue exists only
// for an edge somebody has queued on. The live heap of a 4096-input
// butterfly — 98 304 edges, the largest documented scale — plus an idle
// Runner over it must stay within 40 bytes an edge, and still does after a
// short sparse run, so no run builds the adjacency or labels either. This
// is the source of the memory figures quoted at traffic.MaxEndpoints and in
// README.
func TestRetainedBytesPerEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 98 304-edge network")
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h0 := live()
	net := traffic.NewButterflyNet(4096)
	r, err := traffic.NewRunner(traffic.Config{
		Net: net, VirtualChannels: 2, MessageLength: 4, Arbitration: vcsim.ArbAge,
		Rate: 0.02, Warmup: 8, Measure: 24, Drain: 256, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := float64(net.G.NumEdges())
	const budget = 40.0
	idle := (float64(live()) - float64(h0)) / edges
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	ran := (float64(live()) - float64(h0)) / edges
	runtime.KeepAlive(r) // or the last GC collects the Runner, Sim and network
	t.Logf("%.0f edges: %.1f bytes per edge idle, %.1f after one run", edges, idle, ran)
	for _, m := range []struct {
		when string
		per  float64
	}{{"idle", idle}, {"after one run", ran}} {
		if m.per > budget {
			t.Errorf("a butterfly network and Runner hold %.1f bytes per edge %s, budget %.0f: something besides "+
				"the edge list and per-edge credit state is kept per edge or per node (adjacency lists, stored "+
				"labels, a slice header per edge) — every wormholed sweep at traffic.MaxEndpoints pays it",
				m.per, m.when, budget)
		}
	}
}
