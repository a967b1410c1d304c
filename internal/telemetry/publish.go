package telemetry

import (
	"net/http"
	"sync"
)

// WindowStats is one per-window sample of the traffic runner's live time
// series: accepted throughput, latency quantiles and instantaneous backlog
// over the window [Start, End).
type WindowStats struct {
	Index     int     `json:"index"`
	Start     int64   `json:"start"`
	End       int64   `json:"end"`
	Injected  int64   `json:"injected"`
	Delivered int64   `json:"delivered"`
	Backlog   int64   `json:"backlog"` // worms in flight at window close
	LatMean   float64 `json:"lat_mean"`
	LatP50    float64 `json:"lat_p50"`
	LatP95    float64 `json:"lat_p95"`
	LatP99    float64 `json:"lat_p99"`
	LatMax    int64   `json:"lat_max"`
}

// Publisher holds the latest published Snapshot behind a mutex so a serving
// goroutine (wormholed's per-job /metrics) can read while a run publishes
// at window boundaries. Publishing copies the snapshot; the hot path never touches the
// mutex.
type Publisher struct {
	mu      sync.Mutex
	snap    Snapshot
	hasSnap bool
}

// Publish replaces the latest snapshot.
func (p *Publisher) Publish(s Snapshot) {
	p.mu.Lock()
	p.snap = s
	p.hasSnap = true
	p.mu.Unlock()
}

// Latest returns a copy of the most recently published snapshot and whether
// one has been published.
func (p *Publisher) Latest() (Snapshot, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap, p.hasSnap
}

// ServeHTTP writes the latest snapshot as JSON (an expvar-style endpoint).
// Returns 204 No Content before the first publication.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	s, ok := p.Latest()
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = WriteSnapshot(w, s)
}

// Aggregate hands out per-job Metrics registries to concurrent runs and folds
// them into one Snapshot afterwards. The experiment harness runs jobs on a
// worker pool; giving each job its own registry keeps the hot path free of
// atomics and the fold deterministic (registries are folded in creation
// order).
type Aggregate struct {
	mu       sync.Mutex
	children []*Metrics
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate { return &Aggregate{} }

// NewMetrics registers and returns a fresh child registry. Safe for
// concurrent use.
func (a *Aggregate) NewMetrics() *Metrics {
	m := NewMetrics()
	a.mu.Lock()
	a.children = append(a.children, m)
	a.mu.Unlock()
	return m
}

// Snapshot folds all child registries (in creation order) and snapshots the
// result. Call only after the runs writing the children have finished.
func (a *Aggregate) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := NewMetrics()
	for _, m := range a.children {
		total.Merge(m)
	}
	return total.Snapshot()
}

// Len returns the number of child registries handed out.
func (a *Aggregate) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.children)
}
