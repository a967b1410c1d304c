package vcsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
)

// TestTerminalEventContract pins what each of the five ways a message can
// end does, hook by hook: OnComplete exactly once with the final stats,
// which counters move, which trace events name the message (runs of one
// kind collapsed: "advance advance deliver" reads "advance deliver"), and
// that its arena buffer goes back to the freelist. The asymmetries
// are deliberate and load-bearing for byte-identical telemetry: a
// zero-length delivery is no advance, a fault abort is silent on the
// trace, and a drop reports where the header stood on either engine.
func TestTerminalEventContract(t *testing.T) {
	g := topology.NewLinearArray(6)
	route := message.ShortestPathRouter(g)
	long := message.Message{Src: 0, Dst: 3, Length: 2, Path: route(0, 3)}
	self := message.Message{Src: 1, Dst: 1, Length: 2}
	// blocker's tail sits on edge 2→3 long after chaser's header has
	// crossed 0→1 and 1→2, so chaser is dropped mid-path, frontier 2.
	blocker := message.Message{Src: 2, Dst: 5, Length: 8, Path: route(2, 5)}
	chaser := message.Message{Src: 0, Dst: 5, Length: 3, Path: route(0, 5)}
	outage := fault.Schedule{
		{Step: 0, Edge: int(long.Path[0]), Kind: fault.KillEdge},
		{Step: 1000, Edge: int(long.Path[0]), Kind: fault.ReviveEdge},
	}
	advances := int64(len(long.Path) + long.Length - 1)

	cases := []struct {
		name     string
		msgs     []message.Message // the last one is the message under test
		cfg      Config
		deep     bool // run on the deep engine only (false: rigid only)
		status   Status
		counters map[string]int64
		trace    string
		dropArg  int32 // EvDrop's Arg: the header's position at the drop
	}{
		{
			name: "zero-length delivery", msgs: []message.Message{self},
			status:   StatusDelivered,
			counters: map[string]int64{"injects": 1, "delivers": 1, "advances": 0, "drops": 0, "fault_aborts": 0},
			trace:    "inject deliver",
		},
		{
			name: "zero-length delivery (deep)", msgs: []message.Message{self}, deep: true,
			status:   StatusDelivered,
			counters: map[string]int64{"injects": 1, "delivers": 1, "advances": 0, "drops": 0, "fault_aborts": 0},
			trace:    "inject deliver",
		},
		{
			name: "rigid delivery", msgs: []message.Message{long},
			status:   StatusDelivered,
			counters: map[string]int64{"injects": 1, "delivers": 1, "advances": advances, "drops": 0, "fault_aborts": 0},
			trace:    "inject advance deliver",
		},
		{
			name: "deep delivery", msgs: []message.Message{long}, deep: true,
			status:   StatusDelivered,
			counters: map[string]int64{"injects": 1, "delivers": 1, "advances": advances, "drops": 0, "fault_aborts": 0},
			trace:    "inject advance deliver",
		},
		{
			// Two worms want the one lane of the first edge in the same
			// step; the second is refused and discarded before injecting.
			name: "drop", msgs: []message.Message{long, long},
			cfg:      Config{DropOnDelay: true},
			status:   StatusDropped,
			counters: map[string]int64{"injects": 1, "delivers": 1, "drops": 1, "fault_aborts": 0},
			trace:    "drop",
		},
		{
			name: "drop (deep)", msgs: []message.Message{long, long}, deep: true,
			cfg:      Config{DropOnDelay: true},
			status:   StatusDropped,
			counters: map[string]int64{"injects": 1, "delivers": 1, "drops": 1, "fault_aborts": 0},
			trace:    "drop",
		},
		{
			name: "drop mid-path", msgs: []message.Message{blocker, chaser},
			cfg:      Config{DropOnDelay: true},
			status:   StatusDropped,
			counters: map[string]int64{"injects": 2, "delivers": 1, "drops": 1, "fault_aborts": 0},
			trace:    "inject advance drop", dropArg: 2,
		},
		{
			name: "drop mid-path (deep)", msgs: []message.Message{blocker, chaser}, deep: true,
			cfg:      Config{DropOnDelay: true},
			status:   StatusDropped,
			counters: map[string]int64{"injects": 2, "delivers": 1, "drops": 1, "fault_aborts": 0},
			trace:    "inject advance drop", dropArg: 2,
		},
		{
			name: "fault abort", msgs: []message.Message{long},
			cfg:      Config{Faults: outage, Retry: RetryPolicy{MaxAttempts: 2, Backoff: 1, BackoffCap: 2}},
			status:   StatusAborted,
			counters: map[string]int64{"injects": 0, "delivers": 0, "advances": 0, "drops": 0, "fault_aborts": 1, "fault_retries": 2},
			trace:    "",
		},
		{
			name: "fault abort (deep)", msgs: []message.Message{long}, deep: true,
			cfg:      Config{Faults: outage, Retry: RetryPolicy{MaxAttempts: 2, Backoff: 1, BackoffCap: 2}},
			status:   StatusAborted,
			counters: map[string]int64{"injects": 0, "delivers": 0, "advances": 0, "drops": 0, "fault_aborts": 1, "fault_retries": 2},
			trace:    "",
		},
	}
	for _, tc := range cases {
		for _, naive := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/naive=%v", tc.name, naive), func(t *testing.T) {
				target := message.ID(len(tc.msgs) - 1)
				var completions []MessageStats
				cfg := tc.cfg
				cfg.VirtualChannels = 1
				cfg.MaxSteps = 1 << 12
				cfg.NaiveScan = naive
				cfg.CheckInvariants = true
				cfg.Metrics = telemetry.NewMetrics()
				cfg.Trace = telemetry.NewTrace(1 << 10)
				cfg.OnComplete = func(id message.ID, st MessageStats) {
					if id == target {
						completions = append(completions, st)
					}
				}
				if tc.deep {
					cfg.LaneDepth = 2
				}
				sim, err := NewSim(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bufs := 0 // messages given a buffer: all on deep lanes, rigid ones with a path
				for _, m := range tc.msgs {
					if _, err := sim.Inject(m, 0); err != nil {
						t.Fatal(err)
					}
					if tc.deep || len(m.Path) > 0 {
						bufs++
					}
				}
				sim.Drain()
				if sim.Active() != 0 {
					t.Fatalf("run did not finish: %+v", sim.Result())
				}

				// OnComplete: once, with exactly the stats Result reports.
				final := sim.Result().PerMessage[target]
				if len(completions) != 1 || completions[0] != final {
					t.Errorf("OnComplete calls %+v, want exactly one with %+v", completions, final)
				}
				if final.Status != tc.status {
					t.Errorf("status %v, want %v", final.Status, tc.status)
				}
				snap := cfg.Metrics.Snapshot()
				for name, want := range tc.counters {
					if got := snap.Counter(name); got != want {
						t.Errorf("counter %s = %d, want %d", name, got, want)
					}
				}
				var kinds []string
				for _, ev := range cfg.Trace.Events() {
					switch ev.Kind {
					case telemetry.EvCredit, telemetry.EvFault:
						continue // Msg is an edge ID on these
					}
					if message.ID(ev.Msg) != target {
						continue
					}
					if k := ev.Kind.String(); len(kinds) == 0 || kinds[len(kinds)-1] != k {
						kinds = append(kinds, k)
					}
					if ev.Kind == telemetry.EvDrop && ev.Arg != tc.dropArg {
						t.Errorf("drop event Arg = %d, want the header position %d", ev.Arg, tc.dropArg)
					}
				}
				if got := strings.Join(kinds, " "); got != tc.trace {
					t.Errorf("trace events %q, want %q", got, tc.trace)
				}

				// Buffers: the worm lets go of its one arena buffer, and every
				// buffer that was handed out is back on the freelist.
				if w := sim.worm(int(target)); w.off >= 0 {
					t.Errorf("finished worm still holds the buffer at arena offset %d", w.off)
				}
				if len(sim.bufFree) != bufs {
					t.Errorf("freelist holds %d buffers, want %d", len(sim.bufFree), bufs)
				}
			})
		}
	}
}

// TestDrainAfterDeadlock: a deadlocked simulator is frozen for every
// entry point. Step and StepTo already refused; Drain used to run one
// more step for a message injected after the freeze and deliver it.
func TestDrainAfterDeadlock(t *testing.T) {
	set := deadlockSet()
	sim, err := NewSim(set.G, Config{VirtualChannels: 1, MaxSteps: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < set.Len(); i++ {
		if _, err := sim.Inject(set.Get(message.ID(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	sim.Drain()
	if !sim.Deadlocked() {
		t.Fatal("workload did not deadlock")
	}
	now, delivered := sim.Now(), sim.Delivered()

	// A one-edge message over a channel nobody holds a buffer on: it
	// would deliver in a single step if the simulator still stepped.
	free := set.Get(0).Path[4:]
	if _, err := sim.Inject(message.Message{Length: 1, Path: free}, now); err != nil {
		t.Fatal(err)
	}
	if got := sim.NextEventTime(); got != -1 {
		t.Errorf("NextEventTime after deadlock = %d, want -1", got)
	}
	sim.Drain()
	if sim.Now() != now || sim.Delivered() != delivered {
		t.Errorf("Drain stepped a deadlocked simulator: clock %d→%d, delivered %d→%d",
			now, sim.Now(), delivered, sim.Delivered())
	}
	if err := sim.StepTo(now + 5); !errors.Is(err, ErrDeadlocked) {
		t.Errorf("StepTo after deadlock: %v, want ErrDeadlocked", err)
	}
}

// TestRejectedInjectLeaksNothing: an Inject that fails validation must
// not consume a recycled path buffer or arena space — a driver feeding
// bad messages at a long-lived Sim would otherwise defeat the freelist
// and grow the arena without bound.
func TestRejectedInjectLeaksNothing(t *testing.T) {
	for _, arch := range deepGrid {
		g := topology.NewLinearArray(4)
		route := message.ShortestPathRouter(g)
		sim, err := NewSim(g, Config{VirtualChannels: 1, LaneDepth: arch.depth, SharedPool: arch.shared, MaxSteps: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		good := message.Message{Src: 0, Dst: 3, Length: 2, Path: route(0, 3)}
		if _, err := sim.Inject(good, 0); err != nil {
			t.Fatal(err)
		}
		sim.Drain()
		bufs, used, worms := len(sim.bufFree), len(sim.arena.buf), sim.Injected()
		if bufs != 1 {
			t.Fatalf("d=%d shared=%v: %d recycled buffers after one delivery, want 1", arch.depth, arch.shared, bufs)
		}
		bad := good
		bad.Path = graph.Path{good.Path[0], graph.EdgeID(g.NumEdges())}
		for i := 0; i < 50; i++ {
			if _, err := sim.Inject(bad, sim.Now()); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("out-of-range edge: err = %v, want ErrBadMessage", err)
			}
		}
		if len(sim.bufFree) != bufs || len(sim.arena.buf) != used || sim.Injected() != worms {
			t.Errorf("d=%d shared=%v: 50 rejected injects moved the freelist %d→%d, arena %d→%d, worms %d→%d",
				arch.depth, arch.shared, bufs, len(sim.bufFree), used, len(sim.arena.buf), worms, sim.Injected())
		}
	}
}
