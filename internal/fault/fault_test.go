package fault

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	s, err := Parse("edge:12@100-200 lane:7@50-90 lane:7@60 edge:3@5-6")
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{
		{Step: 5, Edge: 3, Kind: KillEdge},
		{Step: 6, Edge: 3, Kind: ReviveEdge},
		{Step: 50, Edge: 7, Kind: KillLane},
		{Step: 60, Edge: 7, Kind: KillLane},
		{Step: 90, Edge: 7, Kind: ReviveLane},
		{Step: 100, Edge: 12, Kind: KillEdge},
		{Step: 200, Edge: 12, Kind: ReviveEdge},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	if err := s.Validate(16, 2); err != nil {
		t.Fatal(err)
	}
	reparsed, err := Parse(s.String())
	if err != nil {
		t.Fatalf("String output %q does not reparse: %v", s.String(), err)
	}
	if !reflect.DeepEqual(reparsed, s) {
		t.Fatalf("String round trip changed the schedule:\n%+v\n%+v", s, reparsed)
	}
}

// TestScheduleJSON: in JSON a schedule is a string in the Parse grammar,
// an empty one is omitted under omitempty, and a bad one is a decode
// error wrapping ErrBadSchedule.
func TestScheduleJSON(t *testing.T) {
	type spec struct {
		Faults Schedule `json:"faults,omitempty"`
	}
	var in spec
	if err := json.Unmarshal([]byte(`{"faults":"lane:7@60 edge:3@5-6"}`), &in); err != nil {
		t.Fatal(err)
	}
	if want, _ := Parse("edge:3@5-6 lane:7@60"); !reflect.DeepEqual(in.Faults, want) {
		t.Fatalf("decoded %+v, want %+v", in.Faults, want)
	}
	if blob, err := json.Marshal(in); err != nil || string(blob) != `{"faults":"edge:3@5-6 lane:7@60"}` {
		t.Fatalf("Marshal = %s, %v", blob, err)
	}
	if blob, err := json.Marshal(spec{}); err != nil || string(blob) != `{}` {
		t.Fatalf("empty schedule marshalled as %s, %v", blob, err)
	}
	if err := json.Unmarshal([]byte(`{"faults":"lane3@nonsense"}`), &in); !errors.Is(err, ErrBadSchedule) {
		t.Fatalf("bad grammar decoded with %v, want ErrBadSchedule", err)
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"edge12@1-2",  // no colon
		"link:1@2-3",  // unknown kind
		"edge:1",      // no window
		"edge:x@1-2",  // bad edge
		"edge:-1@1-2", // negative edge
		"edge:1@x-2",  // bad start
		"edge:1@5-5",  // empty window
		"edge:1@5-4",  // inverted window
		"lane:1@3-x",  // bad end
		"edge:1@-3-4", // negative start parses as bad
	} {
		if _, err := Parse(bad); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("Parse(%q) = %v, want ErrBadSchedule", bad, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]Schedule{
		"edge out of range": {{Step: 0, Edge: 9, Kind: KillEdge}},
		"negative step":     {{Step: -1, Edge: 0, Kind: KillEdge}},
		"unknown kind":      {{Step: 0, Edge: 0, Kind: numKinds}},
		"out of order": {
			{Step: 5, Edge: 0, Kind: KillEdge},
			{Step: 1, Edge: 0, Kind: ReviveEdge},
		},
		"too many lane kills": {
			{Step: 0, Edge: 0, Kind: KillLane},
			{Step: 1, Edge: 0, Kind: KillLane},
			{Step: 2, Edge: 0, Kind: KillLane},
		},
		"revive without kill": {{Step: 0, Edge: 0, Kind: ReviveLane}},
		"double edge kill": {
			{Step: 0, Edge: 0, Kind: KillEdge},
			{Step: 1, Edge: 0, Kind: KillEdge},
		},
		"revive live edge": {{Step: 0, Edge: 0, Kind: ReviveEdge}},
	}
	for name, s := range cases {
		if err := s.Validate(4, 2); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("%s: Validate = %v, want ErrBadSchedule", name, err)
		}
	}
}

func TestLastRevive(t *testing.T) {
	if got := (Schedule{}).LastRevive(); got != -1 {
		t.Fatalf("empty schedule LastRevive = %d, want -1", got)
	}
	s, err := Parse("edge:0@10-20 lane:1@5-99 edge:2@50")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LastRevive(); got != 99 {
		t.Fatalf("LastRevive = %d, want 99", got)
	}
}

// TestGenerateNested pins the thinning construction: the outage set at a
// lower rate is a subset of the set at any higher rate (same seed), the
// property the T16 monotonicity claim rests on.
func TestGenerateNested(t *testing.T) {
	base := GenConfig{Seed: 42, NumEdges: 96, Horizon: 1000, MeanOutage: 50}
	key := func(ev Event) [3]int { return [3]int{ev.Step, ev.Edge, int(ev.Kind)} }
	var prev map[[3]int]bool
	for _, rate := range []float64{0.05, 0.1, 0.2, 0.5, 1.0} {
		cfg := base
		cfg.Rate = rate
		s := Generate(cfg)
		if err := s.Validate(cfg.NumEdges, 1); err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		cur := map[[3]int]bool{}
		for _, ev := range s {
			cur[key(ev)] = true
		}
		for k := range prev {
			if !cur[k] {
				t.Fatalf("rate %g lost an outage event present at a lower rate: %v", rate, k)
			}
		}
		prev = cur
	}
	// Determinism: same config, same schedule.
	cfg := base
	cfg.Rate = 0.3
	if a, b := Generate(cfg), Generate(cfg); !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic")
	}
	// Rate 0 and degenerate configs yield nil.
	cfg.Rate = 0
	if Generate(cfg) != nil {
		t.Fatal("rate 0 should generate nothing")
	}
}

func TestGenerateLaneOutages(t *testing.T) {
	s := Generate(GenConfig{Seed: 7, NumEdges: 32, Horizon: 500, Rate: 1, Lanes: 2, MeanOutage: 20})
	if len(s) == 0 {
		t.Fatal("rate 1 generated nothing")
	}
	for _, ev := range s {
		if ev.Kind != KillLane && ev.Kind != ReviveLane {
			t.Fatalf("Lanes mode generated %v", ev.Kind)
		}
	}
	if err := s.Validate(32, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(32, 1); !errors.Is(err, ErrBadSchedule) {
		t.Fatalf("2-lane outages must not validate at B=1: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KillEdge.String() != "kill-edge" || ReviveLane.String() != "revive-lane" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatal("out-of-range kind name wrong")
	}
}
