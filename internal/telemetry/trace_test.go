package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestTraceRecordsInOrder(t *testing.T) {
	tr := NewTrace(8)
	tr.Inject(1, 0, 5)
	tr.Advance(2, 0, 1)
	tr.Park(3, 0, 7)
	tr.Wake(5, 0, 7)
	tr.Deliver(9, 0, 8)
	want := []Event{
		{Time: 1, Msg: 0, Arg: 5, Kind: EvInject},
		{Time: 2, Msg: 0, Arg: 1, Kind: EvAdvance},
		{Time: 3, Msg: 0, Arg: 7, Kind: EvPark},
		{Time: 5, Msg: 0, Arg: 7, Kind: EvWake},
		{Time: 9, Msg: 0, Arg: 8, Kind: EvDeliver},
	}
	if got := tr.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("Events() = %+v, want %+v", got, want)
	}
	for i, e := range want {
		if got := e.Kind.String(); got != []string{"inject", "advance", "park", "wake", "deliver"}[i] {
			t.Errorf("kind %d renders as %q", e.Kind, got)
		}
	}
	if got := EventKind(0).String(); got != "kind_0" {
		t.Errorf("zero kind renders as %q", got)
	}
}

func TestTraceDropEvent(t *testing.T) {
	tr := NewTrace(4)
	tr.Drop(6, 2, 3)
	want := []Event{{Time: 6, Msg: 2, Arg: 3, Kind: EvDrop}}
	if got := tr.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("Events() = %+v, want %+v", got, want)
	}
	if got := EvDrop.String(); got != "drop" {
		t.Errorf("EvDrop renders as %q", got)
	}
}

func TestTraceRingDropsOldestWithoutSpill(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Advance(i, int32(i), 0)
	}
	got := tr.Events()
	if len(got) != 3 || got[0].Msg != 2 || got[2].Msg != 4 {
		t.Errorf("ring kept %+v, want the 3 newest events (msgs 2..4)", got)
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", tr.Dropped())
	}
}

func TestTraceSteadyStateAllocationFree(t *testing.T) {
	tr := NewTrace(64)
	if n := testing.AllocsPerRun(200, func() {
		tr.Inject(1, 1, 4)
		tr.Advance(2, 1, 1)
		tr.Credit(2, 3, 1)
		tr.Deliver(3, 1, 2)
	}); n != 0 {
		t.Errorf("ring recording allocates %.1f/op, want 0 (drop-oldest mode)", n)
	}
}

func TestWriteChrome(t *testing.T) {
	events := []Event{
		{Time: 1, Msg: 0, Arg: 3, Kind: EvInject},
		{Time: 2, Msg: 0, Arg: 1, Kind: EvAdvance},
		{Time: 3, Msg: 0, Arg: 5, Kind: EvPark},
		{Time: 4, Msg: 5, Arg: 2, Kind: EvCredit},
		{Time: 6, Msg: 0, Arg: 5, Kind: EvDeliver},
		{Time: 7, Msg: 1, Arg: 2, Kind: EvDeliver}, // never injected: instant, not "E"
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata + 6 events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d trace events, want 8:\n%s", len(doc.TraceEvents), buf.String())
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
		if ev.Name == "credit" && ev.Pid != 1 {
			t.Errorf("credit event on pid %d, want 1 (edges)", ev.Pid)
		}
	}
	if counts["M"] != 2 || counts["B"] != 1 || counts["E"] != 1 || counts["i"] != 4 {
		t.Errorf("phase counts = %v, want M:2 B:1 E:1 i:4", counts)
	}
}

func TestPublisher(t *testing.T) {
	p := &Publisher{}
	if _, ok := p.Latest(); ok {
		t.Fatal("Latest reported a snapshot before any Publish")
	}
	m := NewMetrics()
	m.Inc(CtrSteps)
	p.Publish(m.Snapshot())
	s, ok := p.Latest()
	if !ok || s.Counter("steps") != 1 {
		t.Errorf("Latest = (%+v, %v), want the published snapshot", s, ok)
	}
}
