// Package telemetry is the flight-recorder instrumentation layer for the
// simulator stack. It offers three tiers, each zero-cost when unused:
//
//  1. Counters (Metrics): a fixed-slot, allocation-free registry of hot-path
//     counters — park/wake/spurious-wake totals, stall-cause attribution,
//     dirty-list and wait-heap depth gauges, a StepTo jump-size histogram and
//     per-edge occupancy/stall accumulators for heatmaps. The simulator
//     increments counters through nil-check-gated pointers, so a nil *Metrics
//     costs a single predictable branch per site.
//  2. Event stream (Trace): a ring-buffered structured trace of
//     inject/advance/park/wake/deliver/drop/credit events with a Chrome
//     trace-event exporter (chrome.go).
//  3. Live export (Publisher): mutex-guarded snapshot publication consumed by
//     wormholed's per-job /metrics endpoint (publish.go).
//
// All Metrics methods called from the simulator hot path are marked
// //wormvet:hotpath and stay allocation-free; snapshots are the only
// allocating operation. Snapshot ordering is deterministic (fixed slot order,
// no map iteration).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Counter identifies one fixed slot in the Metrics registry.
type Counter int

// Fixed counter slots. Order is the snapshot order; append only —
// removing or reordering a slot is a metricsCodecVersion bump.
const (
	CtrSteps Counter = iota
	CtrAdvances
	CtrInjects
	CtrDelivers
	CtrDrops
	CtrParks
	CtrWakes
	CtrSpuriousWakes
	CtrStallLaneCredit
	CtrStallSharedPool
	CtrStallBandwidth
	CtrStallHeadOfLine
	CtrFastForwards
	CtrFaultKills
	CtrFaultRevives
	CtrFaultAborts
	CtrFaultRetries
	CtrStallFault
	NumCounters // sentinel: number of counter slots
)

// counterNames maps slots to stable snapshot names. Indexed by Counter.
var counterNames = [NumCounters]string{
	"steps",
	"advances",
	"injects",
	"delivers",
	"drops",
	"parks",
	"wakes",
	"spurious_wakes",
	"stall_lane_credit",
	"stall_shared_pool",
	"stall_bandwidth",
	"stall_head_of_line",
	"fast_forwards",
	"fault_kills",
	"fault_revives",
	"fault_aborts",
	"fault_retries",
	"stall_fault",
}

// Name returns the stable snapshot name of the counter slot.
func (c Counter) Name() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter_%d", int(c))
	}
	return counterNames[c]
}

// jumpBuckets is the number of log2 buckets in the StepTo jump histogram:
// bucket i counts jumps d with bits.Len(d) == i, i.e. 2^(i-1) <= d < 2^i,
// which covers every positive int64 jump size.
const jumpBuckets = 64

// Metrics is the fixed-slot counter registry. One Metrics must only be
// written by a single simulator at a time (the simulator itself is
// single-goroutine); fold concurrent runs with an Aggregate.
//
// The zero value is ready for use; per-edge accumulators appear after the
// owning simulator calls EnsureEdges.
type Metrics struct {
	ctr  [NumCounters]int64
	jump [jumpBuckets]int64 // StepTo jump-size log2 histogram

	// Gauges accumulated once per applied step so snapshots can report both
	// the mean and the high-water mark.
	gaugeSteps    int64 // number of StepGauges calls
	dirtySum      int64
	dirtyMax      int64
	parkedSum     int64
	parkedMax     int64
	arenaChunks   int64 // arena occupancy, sampled at snapshot time
	arenaCapacity int64

	// Per-edge accumulators, indexed by edge ID. edgeStall counts
	// stall-attribution hits; occ integrates each edge's occupancy.
	edgeStall []int64
	occ       []edgeOcc
	edgeFault []int64 // total steps each edge spent with a fault active
	horizon   int64   // latest time passed to EdgeOccupancy/Finish
}

// edgeOcc is one edge's occupancy integral. occInt integrates end-of-step
// occupancy over simulated time, so occInt/steps is the edge's mean
// occupancy. The three fields are one record because EdgeOccupancy reads
// and writes all three for every dirty edge: on a wide network, three
// parallel arrays cost three cache misses where one record costs one.
type edgeOcc struct {
	occInt  int64
	lastOcc int64 // occupancy at the last fold point
	lastT   int64 // time of the last fold point
}

// foldedTo is the integral carried to time t without moving the fold
// point.
func (o edgeOcc) foldedTo(t int64) int64 { return o.occInt + o.lastOcc*(t-o.lastT) }

// NewMetrics returns an empty registry. Edge accumulators are sized lazily by
// the simulator via EnsureEdges.
func NewMetrics() *Metrics { return &Metrics{} }

// EnsureEdges sizes the per-edge accumulators for numEdges edges, preserving
// existing totals when already large enough. Called at simulator
// construction, never on the hot path.
func (m *Metrics) EnsureEdges(numEdges int) {
	if numEdges <= len(m.edgeStall) {
		return
	}
	m.edgeStall = grow(m.edgeStall, numEdges)
	m.occ = grow(m.occ, numEdges)
	m.edgeFault = grow(m.edgeFault, numEdges)
}

// grow returns s extended with zeros to n elements.
func grow[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// Inc adds one to a counter slot.
//
//wormvet:hotpath
func (m *Metrics) Inc(c Counter) { m.ctr[c]++ }

// Add adds n to a counter slot.
//
//wormvet:hotpath
func (m *Metrics) Add(c Counter, n int64) { m.ctr[c] += n }

// EdgeStall records one stall attributed to cause c on edge e. Edges outside
// the EnsureEdges range only bump the scalar counter.
//
//wormvet:hotpath
func (m *Metrics) EdgeStall(c Counter, e int32) {
	m.ctr[c]++
	if int(e) < len(m.edgeStall) && e >= 0 {
		m.edgeStall[e]++
	}
}

// StallSpan attributes span stalled steps to cause c on edge e. Used when the
// wakeup engine stamps a whole parked interval at once.
//
//wormvet:hotpath
func (m *Metrics) StallSpan(c Counter, e int32, span int64) {
	m.ctr[c] += span
	if int(e) < len(m.edgeStall) && e >= 0 {
		m.edgeStall[e] += span
	}
}

// EdgeOccupancy folds edge e's occupancy integral up to time now, then
// records occ as the edge's occupancy from now onward. The simulator calls
// this exactly when an edge's occupancy may have changed (its dirty lists),
// so the integral is exact under the end-of-step value convention.
//
//wormvet:hotpath
func (m *Metrics) EdgeOccupancy(e int32, occ, now int64) {
	if int(e) >= len(m.occ) || e < 0 {
		return
	}
	o := &m.occ[e]
	o.occInt += o.lastOcc * (now - o.lastT)
	o.lastOcc = occ
	o.lastT = now
	if now > m.horizon {
		m.horizon = now
	}
}

// EdgeFault attributes span steps of fault time (lanes or the whole edge
// dead) to edge e. The simulator calls it when an edge returns to full
// health and once at result time for still-open outages.
//
//wormvet:hotpath
func (m *Metrics) EdgeFault(e int32, span int64) {
	if int(e) < len(m.edgeFault) && e >= 0 {
		m.edgeFault[e] += span
	}
}

// StepGauges accumulates per-step gauge readings: dirty-list depth and
// currently-parked worm count.
//
//wormvet:hotpath
func (m *Metrics) StepGauges(dirty, parked int) {
	m.gaugeSteps++
	d, p := int64(dirty), int64(parked)
	m.dirtySum += d
	if d > m.dirtyMax {
		m.dirtyMax = d
	}
	m.parkedSum += p
	if p > m.parkedMax {
		m.parkedMax = p
	}
}

// Jump records a StepTo/Drain fast-forward of d steps in the log2 histogram.
//
//wormvet:hotpath
func (m *Metrics) Jump(d int64) {
	m.ctr[CtrFastForwards]++
	b := 0
	for v := d; v > 0; v >>= 1 {
		b++
	}
	if b >= jumpBuckets {
		b = jumpBuckets - 1
	}
	m.jump[b]++
}

// Arena records arena occupancy (int32 elements used out of capacity),
// sampled at snapshot boundaries by the simulator.
func (m *Metrics) Arena(used, capacity int64) {
	m.arenaChunks = used
	m.arenaCapacity = capacity
}

// CounterValue is one named counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeStats summarizes an accumulated gauge.
type GaugeStats struct {
	Mean float64 `json:"mean"`
	Max  int64   `json:"max"`
}

// JumpBucket is one non-empty bucket of the fast-forward histogram: Count
// jumps d with Lo <= d <= Hi.
type JumpBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Snapshot is a deterministic point-in-time copy of a Metrics registry.
// Field ordering and slice ordering are fixed (counter slot order, then edge
// ID order) so identical runs serialize identically.
type Snapshot struct {
	Counters []CounterValue `json:"counters"`
	Dirty    GaugeStats     `json:"dirty_depth"`
	Parked   GaugeStats     `json:"parked"`
	Arena    struct {
		Used     int64 `json:"used"`
		Capacity int64 `json:"capacity"`
	} `json:"arena"`
	Jumps   []JumpBucket `json:"jumps,omitempty"`
	Horizon int64        `json:"horizon"`
	// EdgeStalls, EdgeOcc and EdgeFault are indexed by edge ID. EdgeOcc is
	// the mean occupancy of each edge over [0, Horizon]; EdgeFault is the
	// total steps each edge spent with a fault active.
	EdgeStalls []int64   `json:"edge_stalls,omitempty"`
	EdgeOcc    []float64 `json:"edge_occ,omitempty"`
	EdgeFault  []int64   `json:"edge_fault,omitempty"`
	// Windows carries the traffic runner's per-window time series when the
	// run was windowed; empty otherwise.
	Windows []WindowStats `json:"windows,omitempty"`
}

// Counter returns the value of the named counter, or 0 if absent.
func (s *Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Snapshot copies the registry into a deterministic Snapshot. Per-edge
// occupancy integrals are folded up to the registry's horizon without
// mutating the live accumulators, so snapshots can be taken mid-run.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	s.Counters = make([]CounterValue, NumCounters)
	for i := Counter(0); i < NumCounters; i++ {
		s.Counters[i] = CounterValue{Name: i.Name(), Value: m.ctr[i]}
	}
	if m.gaugeSteps > 0 {
		s.Dirty = GaugeStats{Mean: float64(m.dirtySum) / float64(m.gaugeSteps), Max: m.dirtyMax}
		s.Parked = GaugeStats{Mean: float64(m.parkedSum) / float64(m.gaugeSteps), Max: m.parkedMax}
	}
	s.Arena.Used = m.arenaChunks
	s.Arena.Capacity = m.arenaCapacity
	s.Horizon = m.horizon
	for b, n := range m.jump {
		if n == 0 {
			continue
		}
		lo, hi := int64(1), int64(1)
		if b > 1 {
			lo = int64(1) << (b - 1)
		}
		if b < 63 {
			hi = int64(1)<<b - 1
		} else {
			hi = int64(1)<<62 + (int64(1)<<62 - 1)
		}
		s.Jumps = append(s.Jumps, JumpBucket{Lo: lo, Hi: hi, Count: n})
	}
	if len(m.edgeStall) > 0 {
		s.EdgeStalls = append([]int64(nil), m.edgeStall...)
		s.EdgeOcc = make([]float64, len(m.occ))
		if m.horizon > 0 {
			for e, o := range m.occ {
				s.EdgeOcc[e] = float64(o.foldedTo(m.horizon)) / float64(m.horizon)
			}
		}
		for _, v := range m.edgeFault {
			if v != 0 {
				s.EdgeFault = append([]int64(nil), m.edgeFault...)
				break
			}
		}
	}
	return s
}

// Reset zeroes the registry and keeps its per-edge accumulators sized,
// so a simulator that sized them at construction can record a fresh run
// into it.
func (m *Metrics) Reset() {
	clear(m.edgeStall)
	clear(m.occ)
	clear(m.edgeFault)
	*m = Metrics{edgeStall: m.edgeStall, occ: m.occ, edgeFault: m.edgeFault}
}

// Merge folds other's scalar counters, gauges and histogram into m, and the
// per-edge accumulators when both registries describe the same edge set.
// Used by Aggregate to combine per-job registries after concurrent runs.
// Each edge's occupancy integrals add up and the horizon is the longer
// one, so a merged EdgeOcc is the sum of the runs' mean occupancies when
// their horizons are equal, and each run's weighted by its share of the
// longest horizon when they are not.
func (m *Metrics) Merge(other *Metrics) {
	for i := range m.ctr {
		m.ctr[i] += other.ctr[i]
	}
	for i := range m.jump {
		m.jump[i] += other.jump[i]
	}
	m.gaugeSteps += other.gaugeSteps
	m.dirtySum += other.dirtySum
	m.parkedSum += other.parkedSum
	if other.dirtyMax > m.dirtyMax {
		m.dirtyMax = other.dirtyMax
	}
	if other.parkedMax > m.parkedMax {
		m.parkedMax = other.parkedMax
	}
	m.arenaChunks += other.arenaChunks
	m.arenaCapacity += other.arenaCapacity
	if other.horizon > m.horizon {
		m.horizon = other.horizon
	}
	if len(other.edgeStall) == 0 {
		return
	}
	if len(m.edgeStall) == 0 {
		m.EnsureEdges(len(other.edgeStall))
	}
	if len(m.edgeStall) != len(other.edgeStall) {
		return // incompatible edge sets: keep scalar totals only
	}
	for e := range m.edgeStall {
		m.edgeStall[e] += other.edgeStall[e]
		// Fold the other registry's integral to its own horizon so the sum
		// stays meaningful; lastOcc/lastT remain m's own.
		m.occ[e].occInt += other.occ[e].foldedTo(other.horizon)
		m.edgeFault[e] += other.edgeFault[e]
	}
}

// WriteSnapshotFile writes s as indented JSON to path.
func WriteSnapshotFile(path string, s Snapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}

// ReadSnapshotFile reads a Snapshot previously written by WriteSnapshotFile.
func ReadSnapshotFile(path string) (Snapshot, error) {
	var s Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("telemetry: decode %s: %w", path, err)
	}
	return s, nil
}

// WriteSnapshot writes s as indented JSON to w.
func WriteSnapshot(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
