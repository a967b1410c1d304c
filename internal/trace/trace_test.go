package trace

import (
	"strings"
	"testing"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
	"wormhole/internal/vcsim"
)

func lineSet(msgs, span, l int) *message.Set {
	g := topology.NewLinearArray(span + 1)
	set := message.NewSet(g)
	route := message.ShortestPathRouter(g)
	for i := 0; i < msgs; i++ {
		set.Add(0, graph.NodeID(span), l, route(0, graph.NodeID(span)))
	}
	return set
}

// record runs set under cfg with a fresh recorder attached.
func record(t *testing.T, set *message.Set, cfg vcsim.Config) (*Recorder, vcsim.Result) {
	t.Helper()
	rec := NewRecorder(set)
	if err := rec.Observe(&cfg); err != nil {
		t.Fatal(err)
	}
	return rec, vcsim.Run(set, nil, cfg)
}

func TestRecorderSingleWorm(t *testing.T) {
	const d, l = 4, 3
	set := lineSet(1, d, l)
	rec, res := record(t, set, vcsim.Config{VirtualChannels: 1})
	if rec.Steps() != res.Steps {
		t.Errorf("recorder steps %d, sim %d", rec.Steps(), res.Steps)
	}
	// The worm advances every step: d+l-1 advances.
	if got := rec.frontierAt(0, res.Steps); got != d+l-1 {
		t.Errorf("final frontier %d, want %d", got, d+l-1)
	}
	// At time 1 the header sits at edge 0.
	occ := rec.OccupancyAt(1)
	if len(occ) != 1 {
		t.Fatalf("occupancy at t=1: %v", occ)
	}
	for e, ids := range occ {
		if e != set.Get(0).Path[0] || len(ids) != 1 || ids[0] != 0 {
			t.Errorf("unexpected occupancy %v", occ)
		}
	}
	// After delivery, nothing is buffered.
	if occ := rec.OccupancyAt(res.Steps); len(occ) != 0 {
		t.Errorf("post-delivery occupancy %v", occ)
	}
}

func TestRecorderOccupancyMatchesSim(t *testing.T) {
	// Two worms sharing a path with B=2: peak occupancy per edge is 2,
	// matching the simulator's MaxOccupied.
	set := lineSet(2, 5, 4)
	rec, res := record(t, set, vcsim.Config{VirtualChannels: 2})
	peak := 0
	for t0 := 0; t0 <= res.Steps; t0++ {
		for _, ids := range rec.OccupancyAt(t0) {
			if len(ids) > peak {
				peak = len(ids)
			}
		}
	}
	if peak != res.MaxOccupied {
		t.Errorf("recorder peak %d, sim MaxOccupied %d", peak, res.MaxOccupied)
	}
}

func TestRecorderDrops(t *testing.T) {
	set := lineSet(2, 4, 6)
	rec, res := record(t, set, vcsim.Config{VirtualChannels: 1, DropOnDelay: true})
	if res.Dropped != 1 {
		t.Fatalf("dropped %d", res.Dropped)
	}
	rec.fold()
	if rec.ends[1].Kind != telemetry.EvDrop {
		t.Error("drop event not recorded")
	}
	dropT := int(rec.ends[1].Time)
	// Dropped worm occupies nothing after its drop time.
	for _, ids := range rec.OccupancyAt(dropT) {
		for _, id := range ids {
			if id == 1 {
				t.Error("dropped worm still occupies a buffer")
			}
		}
	}
}

func TestRenderDiagram(t *testing.T) {
	set := lineSet(2, 3, 3)
	rec, _ := record(t, set, vcsim.Config{VirtualChannels: 1})
	out := rec.Render()
	if !strings.Contains(out, "time 0..") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("worm characters missing:\n%s", out)
	}
	if !strings.Contains(out, "delivered@") {
		t.Errorf("legend missing:\n%s", out)
	}
	// Two edge rows (the final edge's buffer is never occupied but the
	// row still renders) plus header and legend.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+3+1 {
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestRenderLargeDegradesGracefully(t *testing.T) {
	bf := topology.NewButterfly(256)
	set := message.NewSet(bf.G)
	for src := 0; src < 256; src++ {
		for rep := 0; rep < 4; rep++ {
			dst := (src*7 + rep*13) % 256
			set.Add(bf.Input(src), bf.Output(dst), 300, bf.Route(src, dst))
		}
	}
	rec, _ := record(t, set, vcsim.Config{VirtualChannels: 2})
	out := rec.Render()
	if !strings.Contains(out, "too large") {
		t.Errorf("large trace should summarize, got %d bytes", len(out))
	}
}

func TestSingleWormDiagonal(t *testing.T) {
	// A lone worm's header traces a diagonal through the diagram: edge i
	// is first occupied at time i+1.
	const d, l = 5, 2
	set := lineSet(1, d, l)
	rec, _ := record(t, set, vcsim.Config{VirtualChannels: 1})
	m := set.Get(0)
	for i := 0; i <= d-2; i++ {
		occ := rec.OccupancyAt(i + 1)
		found := false
		for e := range occ {
			if e == m.Path[i] {
				found = true
			}
		}
		if !found {
			t.Errorf("edge %d not occupied at time %d: %v", i, i+1, occ)
		}
	}
}

func TestObserveRejectsDeepConfigs(t *testing.T) {
	set := lineSet(1, 3, 2)
	for _, cfg := range []vcsim.Config{
		{VirtualChannels: 1, LaneDepth: 2},
		{VirtualChannels: 2, SharedPool: true},
	} {
		rec := NewRecorder(set)
		if err := rec.Observe(&cfg); err != ErrDeepRun {
			t.Errorf("Observe(%+v) = %v, want ErrDeepRun", cfg, err)
		}
		if cfg.Trace != nil {
			t.Errorf("Observe(%+v) installed an event ring despite rejecting the config", cfg)
		}
		// A ring the caller set is not adopted either.
		own := telemetry.NewTrace(4)
		cfg.Trace = own
		if err := rec.Observe(&cfg); err != ErrDeepRun || cfg.Trace != own || rec.ring != nil {
			t.Errorf("Observe(%+v) with a caller ring = %v, ring adopted %v", cfg, err, rec.ring != nil)
		}
	}
}

func TestObserveAcceptsRigidConfigs(t *testing.T) {
	set := lineSet(1, 3, 2)
	rec := NewRecorder(set)
	// LaneDepth 0 and 1 both mean the rigid engine.
	for _, depth := range []int{0, 1} {
		cfg := vcsim.Config{VirtualChannels: 1, LaneDepth: depth}
		if err := rec.Observe(&cfg); err != nil {
			t.Fatalf("Observe(depth=%d) = %v, want nil", depth, err)
		}
		if cfg.Trace == nil || rec.ring != cfg.Trace {
			t.Errorf("Observe(depth=%d) did not install an event ring and attach to it", depth)
		}
	}
	// A ring the caller set is kept and read as it stands.
	own := telemetry.NewTrace(64)
	cfg := vcsim.Config{VirtualChannels: 1, Trace: own}
	if err := rec.Observe(&cfg); err != nil || cfg.Trace != own || rec.ring != own {
		t.Errorf("Observe with a caller ring = %v, kept %v, attached %v", err, cfg.Trace == own, rec.ring == own)
	}
}

// TestRenderRefusesOverflowedRing: a ring that overwrote its oldest events
// has lost early advances, so every later frontier would be drawn short.
// Render says so in one line instead of drawing; the same run through a
// ring that kept everything draws the usual diagram.
func TestRenderRefusesOverflowedRing(t *testing.T) {
	set := lineSet(2, 3, 3)
	small := telemetry.NewTrace(4)
	rec, _ := record(t, set, vcsim.Config{VirtualChannels: 1, Trace: small})
	if small.Dropped() == 0 {
		t.Fatal("a 4-slot ring should have overflowed on a two-worm run")
	}
	out := rec.Render()
	if !strings.Contains(out, "overflowed") || strings.Count(out, "\n") != 1 || strings.Contains(out, "time 0..") {
		t.Errorf("want a one-line overflow refusal, got:\n%s", out)
	}
	full, _ := record(t, set, vcsim.Config{VirtualChannels: 1})
	if out := full.Render(); !strings.Contains(out, "time 0..") || strings.Contains(out, "overflowed") {
		t.Errorf("an intact ring should draw the diagram, got:\n%s", out)
	}
}

// TestDiagramIgnoresNonMotionEvents: the ring also carries park, wake and
// credit events, and a deadlocked ring parks after its last advance. Those
// times must not widen the diagram past the last advance/drop/delivery.
func TestDiagramIgnoresNonMotionEvents(t *testing.T) {
	ring := telemetry.NewTrace(16)
	ring.Inject(1, 0, 4)
	ring.Advance(1, 0, 1)
	ring.Advance(2, 0, 2)
	ring.Park(9, 0, 2)
	ring.Wake(11, 0, 2)
	ring.Credit(12, 0, 0)
	ring.Fault(13, 0, 1)
	rec := NewRecorder(lineSet(1, 4, 3))
	cfg := vcsim.Config{VirtualChannels: 1, Trace: ring}
	if err := rec.Observe(&cfg); err != nil {
		t.Fatal(err)
	}
	if rec.Steps() != 2 {
		t.Errorf("Steps() = %d, want 2 (the last advance)", rec.Steps())
	}
	if got := rec.frontierAt(0, 2); got != 2 {
		t.Errorf("frontier at t=2 = %d, want 2", got)
	}
}
