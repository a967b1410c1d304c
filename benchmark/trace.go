package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced pass records a span around every call the benchmark makes
// into a layer's public surface: name, start, end, the span that caused
// it, and one id per iteration or job. Spans stay in memory and are
// written at exit as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing load. A span's name starts
// with its layer ("vcsim.Sim.StepTo", "wormholed.submit"); a layer's
// self time is a span's duration minus the part its children cover.

type spanID int

type span struct {
	name       string
	parent     spanID // 0: none
	iter       int    // iteration or job the span belongs to
	lane       int    // client goroutine, for the viewer's rows
	start, end time.Duration
}

// tracer collects spans. A nil *tracer records nothing, so untraced
// code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spanID i is spans[i-1]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span now.
func (t *tracer) begin(name string, parent spanID, iter int) spanID {
	return t.beginLane(name, parent, iter, 0)
}

func (t *tracer) beginLane(name string, parent spanID, iter, lane int) spanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, iter: iter, lane: lane, start: time.Since(t.epoch), end: -1})
	return spanID(len(t.spans))
}

// end closes a span and returns its duration.
func (t *tracer) end(id spanID) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = time.Since(t.epoch)
	return s.end - s.start
}

// add records an aggregated span: dur of work that started at start
// (used for per-window sums of calls too short to time one by one).
func (t *tracer) add(name string, parent spanID, iter int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.epoch)
	t.spans = append(t.spans, span{name: name, parent: parent, iter: iter, start: s, end: s + dur})
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates by span name: total duration, and self time =
// duration minus the direct children's durations.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.end >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		r := rows[s.name]
		if r == nil {
			r = &selfRow{Name: s.name}
			rows[s.name] = r
		}
		dur := s.end - s.start
		r.Count++
		r.TotalMS += float64(dur) / 1e6
		r.SelfMS += float64(dur-children[i+1]) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// chromeEvent is one complete ("X") event of the trace-event format;
// times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.name, ".")
		events = append(events, chromeEvent{
			Name: s.name, Cat: layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": i + 1, "parent": int(s.parent), "iter": s.iter},
		})
	}
	t.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
