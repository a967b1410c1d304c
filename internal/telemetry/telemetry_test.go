package telemetry

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestCounterNamesCompleteAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		name := counterNames[c]
		if name == "" {
			t.Errorf("counter %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	fill := func() *Metrics {
		m := NewMetrics()
		m.EnsureEdges(4)
		m.Inc(CtrSteps)
		m.Add(CtrAdvances, 7)
		m.EdgeStall(CtrStallLaneCredit, 1)
		m.EdgeStall(CtrStallBandwidth, 3)
		m.StallSpan(CtrStallSharedPool, 2, 9)
		m.EdgeOccupancy(1, 2, 3)
		m.EdgeOccupancy(1, 0, 9)
		m.StepGauges(5, 2)
		m.Jump(17)
		m.Arena(64, 128)
		return m
	}
	a, b := fill().Snapshot(), fill().Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical registries snapshot differently:\n%+v\n%+v", a, b)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("snapshot JSON differs:\n%s\n%s", ja, jb)
	}
}

func TestSnapshotMidRunDoesNotMutate(t *testing.T) {
	m := NewMetrics()
	m.EnsureEdges(1)
	m.EdgeOccupancy(0, 2, 1) // occupancy 2 from t=1
	mid := m.Snapshot()      // folds the open span to horizon 1 without mutating
	if mid.Horizon != 1 {
		t.Fatalf("mid-run horizon = %d, want 1", mid.Horizon)
	}
	m.EdgeOccupancy(0, 0, 5) // integral += 2*(5-1) = 8
	final := m.Snapshot()
	if want := 8.0 / 5.0; final.EdgeOcc[0] != want {
		t.Errorf("EdgeOcc[0] = %v, want %v (mid-run snapshot must not consume the open span)", final.EdgeOcc[0], want)
	}
}

func TestStallSpanAccumulatesPerEdge(t *testing.T) {
	m := NewMetrics()
	m.EnsureEdges(2)
	m.StallSpan(CtrStallLaneCredit, 1, 12)
	m.EdgeStall(CtrStallLaneCredit, 1)
	s := m.Snapshot()
	// Stall counters count stalled worm-steps: EdgeStall adds one failed
	// attempt, StallSpan the whole parked interval — scalar and per-edge
	// totals must agree.
	if s.Counter("stall_lane_credit") != 13 {
		t.Errorf("stall_lane_credit = %d, want 13 (12-step span + one attempt)", s.Counter("stall_lane_credit"))
	}
	if s.EdgeStalls[1] != 13 {
		t.Errorf("EdgeStalls[1] = %d, want 13", s.EdgeStalls[1])
	}
}

func TestJumpHistogram(t *testing.T) {
	m := NewMetrics()
	m.Jump(1)
	m.Jump(5)
	m.Jump(5)
	s := m.Snapshot()
	if s.Counter("fast_forwards") != 3 {
		t.Errorf("fast_forwards = %d, want 3", s.Counter("fast_forwards"))
	}
	want := []JumpBucket{{Lo: 1, Hi: 1, Count: 1}, {Lo: 4, Hi: 7, Count: 2}}
	if !reflect.DeepEqual(s.Jumps, want) {
		t.Errorf("Jumps = %+v, want %+v", s.Jumps, want)
	}
}

func TestMerge(t *testing.T) {
	a := NewMetrics()
	a.EnsureEdges(2)
	a.Inc(CtrSteps)
	a.EdgeStall(CtrStallLaneCredit, 0)
	a.EdgeOccupancy(0, 1, 2)
	a.EdgeOccupancy(0, 0, 4) // integral 2, horizon 4

	b := NewMetrics()
	b.EnsureEdges(2)
	b.Add(CtrSteps, 3)
	b.EdgeStall(CtrStallLaneCredit, 1)
	b.EdgeOccupancy(1, 2, 1)
	b.EdgeOccupancy(1, 0, 4) // integral 6, horizon 4

	a.Merge(b)
	s := a.Snapshot()
	if s.Counter("steps") != 4 {
		t.Errorf("merged steps = %d, want 4", s.Counter("steps"))
	}
	if s.EdgeStalls[0] != 1 || s.EdgeStalls[1] != 1 {
		t.Errorf("merged EdgeStalls = %v, want [1 1]", s.EdgeStalls)
	}
	if s.EdgeOcc[0] != 2.0/4 || s.EdgeOcc[1] != 6.0/4 {
		t.Errorf("merged EdgeOcc = %v, want [0.5 1.5]", s.EdgeOcc)
	}

	// Incompatible edge sets: scalars fold, per-edge accumulators are kept
	// as-is rather than summed against mismatched IDs.
	c := NewMetrics()
	c.EnsureEdges(5)
	c.Inc(CtrSteps)
	a.Merge(c)
	if got := a.Snapshot(); got.Counter("steps") != 5 || len(got.EdgeStalls) != 2 {
		t.Errorf("mismatched merge: steps=%d edges=%d, want 5 scalar-only with 2 edges",
			got.Counter("steps"), len(got.EdgeStalls))
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.EnsureEdges(2)
	m.Inc(CtrDelivers)
	m.Jump(3)
	want := m.Snapshot()
	want.Windows = []WindowStats{{Index: 0, Start: 0, End: 64, Injected: 5, Delivered: 4, LatP95: 12.5}}
	path := t.TempDir() + "/snap.json"
	if err := WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestAggregateFoldsInCreationOrder(t *testing.T) {
	agg := NewAggregate()
	m1 := agg.NewMetrics()
	m2 := agg.NewMetrics()
	m1.Inc(CtrInjects)
	m2.Add(CtrInjects, 2)
	if agg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", agg.Len())
	}
	if s := agg.Snapshot(); s.Counter("injects") != 3 {
		t.Errorf("aggregate injects = %d, want 3", s.Counter("injects"))
	}
}

func TestMetricsHotPathAllocationFree(t *testing.T) {
	m := NewMetrics()
	m.EnsureEdges(8)
	if n := testing.AllocsPerRun(100, func() {
		m.Inc(CtrSteps)
		m.EdgeStall(CtrStallLaneCredit, 3)
		m.StallSpan(CtrStallSharedPool, 2, 5)
		m.EdgeOccupancy(1, 2, 10)
		m.StepGauges(4, 1)
		m.Jump(9)
	}); n != 0 {
		t.Errorf("hot-path counter updates allocate %.1f/op, want 0", n)
	}
}
