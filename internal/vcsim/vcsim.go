// Package vcsim is a cycle-accurate simulator of the paper's wormhole
// router model (Section 1.1):
//
//   - every physical channel (directed edge) multiplexes B virtual
//     channels, realized as a B-slot flit buffer at the head of the edge,
//     at most one flit per message per buffer;
//   - in one flit step, one flit can cross each of the B virtual channels
//     of an edge (so up to B flits per edge per step, at most one per
//     message);
//   - a header flit cannot cross an edge whose head buffer has no free
//     slot; a blocked worm stalls rigidly (no flit of it moves);
//   - injection and delivery buffers are external and unbounded, and a
//     flit reaching its destination node leaves the network immediately.
//
// Two model variants from the paper are supported: drop-on-delay (the
// Section 3.1 algorithm discards any worm that is ever delayed) and the
// restricted-bandwidth model of the Section 1.4 remarks (B buffer slots
// per edge but only one flit may cross each physical edge per step).
//
// The simulator is synchronous and two-phase: slot releases performed
// during a step become visible to other messages only at the next step,
// matching a conservative hardware pipeline. Under this discipline a color
// class with multiplex size ≤ B released in isolation provably never
// blocks, which is the property the Theorem 2.1.6 schedules rely on.
package vcsim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"wormhole/internal/enum"
	"wormhole/internal/fault"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
)

// Policy selects how contending headers are ordered within a flit step.
type Policy int8

const (
	// ArbByID processes messages in message-ID order (a deterministic
	// stand-in for FIFO hardware arbitration).
	ArbByID Policy = iota
	// ArbRandom shuffles contenders uniformly each step.
	ArbRandom
	// ArbAge gives priority to messages with earlier release times
	// (ties broken by ID).
	ArbAge
)

func (p Policy) String() string {
	switch p {
	case ArbByID:
		return "by-id"
	case ArbRandom:
		return "random"
	case ArbAge:
		return "age"
	}
	return fmt.Sprintf("policy(%d)", int8(p))
}

// MarshalText and UnmarshalText spell a Policy as its String() form in
// JSON (wormholed's "arbitration"); see enum.Parse for what is accepted.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *Policy) UnmarshalText(text []byte) (err error) {
	*p, err = enum.Parse("arbitration", string(text), ArbAge)
	return err
}

// Config parameterizes a simulation run.
type Config struct {
	// VirtualChannels is B ≥ 1: buffer lanes per edge and, unless
	// RestrictedBandwidth is set, also the per-edge flit bandwidth.
	VirtualChannels int
	// LaneDepth is d ≥ 1, the flit capacity of each virtual-channel lane
	// (0 means 1). The paper's model is d = 1 — one flit of buffering per
	// lane — and runs on the original rigid-worm engine, byte for byte.
	// Deeper lanes (or SharedPool) switch to the flit-level deep engine in
	// deep.go, under which a blocked worm compresses into its lane storage
	// instead of stalling rigidly.
	LaneDepth int
	// SharedPool pools the edge's B·d flit credits across its B lanes:
	// credits are allocated dynamically, so one hot lane can absorb the
	// whole pool, while the lane count (distinct worms buffered per edge)
	// stays capped at B. False keeps each lane a private d-flit FIFO.
	SharedPool bool
	// RestrictedBandwidth enables the Section 1.4 remark model: B buffer
	// lanes but at most one flit crosses each physical edge per step.
	RestrictedBandwidth bool
	// DropOnDelay discards a worm the first time it fails to advance
	// (used by the Section 3.1 butterfly algorithm).
	DropOnDelay bool
	// Arbitration orders contending messages. Default ArbByID.
	Arbitration Policy
	// Seed feeds the ArbRandom shuffle; ignored otherwise.
	Seed uint64
	// MaxSteps bounds the run; 0 derives a safe bound from the workload.
	// Exceeding the bound marks the result as truncated. The engine keeps
	// per-message event times in 32-bit counters, so the horizon is capped
	// at MaxHorizon.
	MaxSteps int
	// CheckInvariants makes every step assert buffer-capacity and
	// worm-contiguity invariants (for tests; costs time).
	CheckInvariants bool
	// NaiveScan disables the blocked-worm wakeup machinery and restores
	// the original stepper, which re-attempts every active worm every
	// step. Results are byte-identical either way — the wakeup engine is
	// pinned to this one by differential tests — so the naive scan
	// survives purely as the slow, obviously correct oracle.
	NaiveScan bool
	// ParkStreak is the wakeup engine's park hysteresis: a slot-blocked
	// worm parks on a wait queue only after this many consecutive failed
	// steps, so brief blocked episodes never pay the park/wake machinery.
	// 0 means the default of 8. The value is pure mechanism — results are
	// byte-identical for every setting (pinned by regression tests).
	ParkStreak int
	// OnComplete, when non-nil, fires exactly once per message when it
	// finishes — delivered or dropped — with its final MessageStats. Open-
	// loop drivers use it to stream latencies without retaining per-message
	// state; it must not call back into the simulator.
	OnComplete func(message.ID, MessageStats)
	// Metrics, when non-nil, receives flight-recorder counters from the hot
	// path: stall-cause attribution, park/wake totals, per-edge
	// occupancy/stall accumulators, fast-forward histogram. Every site is
	// nil-check gated, so a nil Metrics costs one predictable branch and the
	// simulation schedule is byte-identical either way. A Metrics must not
	// be shared by concurrently running simulators.
	Metrics *telemetry.Metrics
	// Trace, when non-nil, receives the structured event stream (see
	// telemetry.Event), the kernel's one per-event hook. Times follow the
	// MessageStats convention: an event processed in the step from t to t+1
	// reports t+1. Same nil-gating and identity guarantees as Metrics.
	Trace *telemetry.Trace
	// Faults attaches a deterministic fault schedule (see internal/fault):
	// scripted kill/revive events against lanes and whole edges, applied at
	// exact flit steps. Nil keeps the fault-free hot path bit for bit;
	// results remain byte-identical across steppers and across
	// snapshot/restore cuts, including cuts inside an outage.
	Faults fault.Schedule
	// Retry is the source-side re-injection policy for fault-blocked
	// messages: a worm whose header is still at its source router (nothing
	// injected yet) and whose next edge is dead aborts the attempt and
	// re-enters the pending queue after a capped exponential backoff in
	// simulated time. The zero value disables retries — such worms park on
	// the fault wait queue like any other blocked worm.
	Retry RetryPolicy
}

// RetryPolicy caps and paces source-side re-injection of fault-blocked
// messages (see Config.Retry).
type RetryPolicy struct {
	// MaxAttempts is the number of re-injections allowed per message
	// before it is abandoned with StatusAborted. 0 disables retries.
	MaxAttempts int
	// Backoff is the base delay in flit steps before the first
	// re-injection; each subsequent retry doubles it. 0 means 16.
	Backoff int
	// BackoffCap bounds the doubled delay. 0 means 1024.
	BackoffCap int
}

// MaxHorizon is the largest supported MaxSteps / release time: event
// times are held in 32-bit counters throughout the hot-path storage, so
// a run can execute at most ~2·10⁹ flit steps. (A run actually reaching
// the cap would take days of wall clock; the bound exists so overflow is
// an up-front error instead of silent corruption.)
const MaxHorizon = math.MaxInt32 - 1

// MaxLanes is the largest supported Config.VirtualChannels. An edge's
// per-step lane releases — at most one per worm holding a lane there, so at
// most B — accumulate in a 16-bit counter (see edgeRec); the bound keeps
// that an up-front error too. (Hardware routers carry a handful of lanes
// per channel; the paper's experiments stop at B = 64.)
const MaxLanes = 1 << 14

// Status describes a message's final (or current) state.
type Status int8

const (
	// StatusWaiting means the release time has not been reached.
	StatusWaiting Status = iota
	// StatusActive means the worm is injected or trying to inject.
	StatusActive
	// StatusDelivered means all L flits reached the destination.
	StatusDelivered
	// StatusDropped means drop-on-delay discarded the worm.
	StatusDropped
	// StatusAborted means the fault-retry policy gave up on the message:
	// its source-side re-injections all found the first dead edge still
	// dead and MaxAttempts ran out.
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusWaiting:
		return "waiting"
	case StatusActive:
		return "active"
	case StatusDelivered:
		return "delivered"
	case StatusDropped:
		return "dropped"
	case StatusAborted:
		return "aborted"
	}
	return fmt.Sprintf("status(%d)", int8(s))
}

// MessageStats records the fate of one message.
type MessageStats struct {
	Status      Status
	Release     int // configured (or last retried) release time
	InjectTime  int // flit step at which the header first crossed an edge; -1 if never
	DeliverTime int // flit step at which the last flit arrived; -1 if not delivered
	DropTime    int // flit step of the drop or fault abort; -1 otherwise
	Stalls      int // steps spent eligible but unable to advance
	Retries     int // fault-policy re-injections performed
}

// Latency returns delivery time minus release, or -1 if undelivered.
func (m MessageStats) Latency() int {
	if m.Status != StatusDelivered {
		return -1
	}
	return m.DeliverTime - m.Release
}

// Result summarizes a run.
type Result struct {
	Steps     int // flit step at which the last event occurred
	Delivered int // messages fully delivered
	Dropped   int // messages discarded by drop-on-delay
	// Aborted counts messages abandoned by the fault-retry policy after
	// exhausting their re-injection attempts against a dead edge.
	Aborted    int
	Deadlocked bool // true if a blocked configuration could never advance
	// FaultDeadlocked distinguishes deadlocks declared while fault-killed
	// resources were still dead: the freeze is (at least partly) an
	// artifact of the outage, not of the schedule's channel dependencies.
	FaultDeadlocked bool
	Truncated       bool // true if MaxSteps was exceeded
	TotalStalls     int
	FlitHops        int64 // total flit-edge crossings (work performed)
	MaxOccupied     int   // max buffer slots observed in use on any edge
	PerMessage      []MessageStats
	BlockedIDs      []message.ID // messages blocked at deadlock detection
}

// AllDelivered reports whether every message was delivered.
func (r *Result) AllDelivered() bool {
	return r.Delivered == len(r.PerMessage)
}

// DeliveredIDs returns the IDs of delivered messages in ID order.
func (r *Result) DeliveredIDs() []message.ID {
	var out []message.ID
	for i := range r.PerMessage {
		if r.PerMessage[i].Status == StatusDelivered {
			out = append(out, message.ID(i))
		}
	}
	return out
}

// worm is the per-message simulation state, held in chunked arena storage
// (see wormChunk). A message holds one from injection until every worm of
// its chunk has finished; then the chunk is sealed to ≈ 5 bytes a record
// (seal.go). So the record is what a message costs in flight, and what a
// long run keeps is the sealed form: before sealing, these records were
// 62–77% of every open-loop workload's live heap. Hence 72 bytes and no
// pointers: the path and the deep engine's per-flit progress live in the
// Sim's int32 arena behind one offset, the message ID is the low half of
// key, and one end time serves delivery and drop because status says which
// it is. With no pointer in it a wormChunk is allocated noscan, and the GC
// never walks per-message records. All time-valued fields are 32-bit (see
// MaxHorizon).
//
// Field order is layout, not taste: everything a rigid advance attempt and
// the wakeup stepper around it read or write sits in the first 32 bytes, so
// on the page-aligned 72-byte stride five worms in eight take one cache
// line for an attempt and the rest two. Behind key come parking, birth,
// completion and the deep engine's cursors. TestHotLayout pins the size,
// the hot offsets and the absence of pointers; the codec writes the
// 71-byte wire record by offset (putRecord), so the order has no wire
// effect.
//
// Because rigid worms cannot stretch, the entire flit configuration is
// captured by a single counter: frontier = the number of edges the header
// has crossed. Flit j has crossed clamp(frontier−j, 0, D) edges; an
// in-network flit that has crossed c ≥ 1 edges occupies the buffer at the
// head of path[c−1], and a flit with c = D has been removed into the
// delivery buffer. The deep engine (deep.go) tracks per-flit progress in
// prog instead; its fHead/lastInj cursors live here too, inline, so a deep
// advance attempt touches one record plus its arena buffer.
type worm struct {
	// --- hot prefix: the rigid kernel and the stepper loop ---

	// off is where this worm's buffer starts in Sim.arena: the d path edge
	// IDs, then in deep mode the l flit-progress counters (see path, prog).
	// -1 once the worm has finished and the buffer went back to the arena.
	off      int32
	d, l     int32 // path length, message length
	frontier int32
	// injectTime and stalls are the two stats an attempt moves; the rest
	// of the compact per-message stats sit behind key.
	injectTime int32 // -1 if never injected
	stalls     int32
	// streak counts consecutive failed steps since the last advance or
	// wake; parking waits out a short probation (parkStreak) so brief
	// blocked episodes never pay the park/wake machinery.
	streak int32
	status Status
	// woken marks a worm between a wake and its next advance, so telemetry
	// can classify a re-park without progress as a spurious wake. Pure
	// observation — never consulted by the engine itself.
	woken bool
	// stretched marks a deep worm whose in-flight flits sit at strictly
	// consecutive progress values — the rigid-equivalent configuration, in
	// which an unobstructed step advances every flit via shift-through.
	// The deep engine takes a one-pass fast path while it holds (see
	// tryAdvanceStretched) and re-derives it after any compressing step.
	stretched bool

	// --- behind the hot prefix: ordering, parking, birth, completion ---

	// key is the arbitration-order key: id for ArbByID, release<<32 | id
	// for ArbAge. Sorts, merges, and wait-queue heaps compare keys instead
	// of chasing (release, id) field pairs through cold worm structs. Its
	// low half is the worm's message ID (see id).
	key uint64
	// Wakeup-engine state (idle under Config.NaiveScan). A worm whose
	// header finds its next edge's buffer full is parked on that edge's
	// wait queue and skipped until a slot event there — the only event
	// that can change the verdict — wakes it in applyStepEnd. parkedAt
	// is the step of the failed attempt (-1 when not parked); stall
	// credit for the parked span is stamped lazily on wake, deadlock, or
	// result snapshot.
	parkedAt int32
	release  int32
	// end is the step the message ended — delivered, or dropped/aborted, as
	// status says — and -1 while it is in flight (see endTimes).
	end int32

	// waitEdge is the park target a parked worm waits on (see park).
	waitEdge int32

	// Deep-engine cursors: fHead is the first undelivered flit, lastInj
	// the last injected one (−1 before the header enters the network).
	fHead   int32
	lastInj int32
	// blockedOn caches a deep worm's fully-blocked verdict (the park
	// target, kind bit included; -1 when clear). A fully blocked worm's
	// verdict is stable until the blocking credit frees — the park
	// invariant — so probation re-attempts re-fail on a two-load check
	// instead of rescanning every flit (see tryAdvanceDeep). Rent (PR 23,
	// the cache never consulted): knee-deep wall_s +4.2%, medians 0.726 →
	// 0.757 s, slower in 9 of 10 alternating pairs — the size of that
	// hour's spread, so the smallest of the three shortcuts; it stays for
	// the 4 bytes it costs in a record WORMSNAP already carries.
	blockedOn int32
	// retries counts fault-policy re-injections performed (see
	// Config.Retry); it only moves for worms whose first edge died while
	// their header was still at the source.
	retries int32
}

// id is the worm's message ID, the low half of its key under every policy.
//
//wormvet:keypack
//wormvet:hotpath
func (w *worm) id() int32 { return int32(uint32(w.key)) }

// endTimes splits the one end time into MessageStats' delivery and drop
// times: the one status names, and -1 for the other (both while in flight).
//
//wormvet:hotpath
func (w *worm) endTimes() (deliver, drop int32) {
	switch w.status {
	case StatusDelivered:
		return w.end, -1
	case StatusDropped, StatusAborted:
		return -1, w.end
	}
	return -1, -1
}

// messageStats assembles the public MessageStats view of a worm.
//
//wormvet:hotpath
func (w *worm) messageStats() MessageStats {
	deliver, drop := w.endTimes()
	return MessageStats{
		Status:      w.status,
		Release:     int(w.release),
		InjectTime:  int(w.injectTime),
		DeliverTime: int(deliver),
		DropTime:    int(drop),
		Stalls:      int(w.stalls),
		Retries:     int(w.retries),
	}
}

// complete reports whether all flits have been delivered.
//
//wormvet:hotpath
func (w *worm) complete() bool { return w.frontier >= w.d+w.l-1 }

// span returns the closed interval [lo, hi] of path indices whose buffers
// this worm currently occupies; ok is false when the worm occupies nothing.
// Buffers exist only for non-final edges (a flit crossing the last edge is
// removed immediately), hence the d−2 cap.
//
//wormvet:hotpath
func (w *worm) span() (lo, hi int32, ok bool) {
	hi = w.frontier - 1
	if hi > w.d-2 {
		hi = w.d - 2
	}
	lo = w.frontier - w.l
	if lo < 0 {
		lo = 0
	}
	return lo, hi, lo <= hi
}

// crossed returns the closed interval [lo, hi] of path indices whose edges
// carry one flit of this worm if it advances this step.
//
//wormvet:hotpath
func (w *worm) crossed() (lo, hi int32) {
	hi = w.frontier
	if hi > w.d-1 {
		hi = w.d - 1
	}
	lo = w.frontier - w.l + 1
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// --- arena storage -----------------------------------------------------------

// wormShift sizes worm chunks: 4096 worms = 288 KB per chunk. Chunked
// storage keeps worm addresses stable and append cost O(1): a long
// open-loop run injects hundreds of thousands of messages, and growing a
// flat []worm re-copies the whole population every ~25% growth — the
// single largest allocation cost of the pre-arena engine.
const (
	wormShift = 12
	wormMask  = 1<<wormShift - 1
)

type wormChunk [1 << wormShift]worm

// worm returns the worm with the given dense id/index.
//
//wormvet:hotpath
func (si *Sim) worm(idx int) *worm {
	return &si.wormChunks[idx>>wormShift][idx&wormMask]
}

// i32Arena is the one int32 store behind every worm's buffer, addressed by
// offset so a worm holds 4 bytes instead of two slice headers. It is a bump
// allocator over one slice: len(buf) is the cursor, growth re-copies the
// store (under recycling, as many buffers as were ever in flight at once;
// in a batch run, the whole workload's), and reset rewinds the cursor over
// the storage it keeps, which is what makes a Reset-reused Sim
// allocation-free. Offsets are int32, so the store is capped at MaxHorizon
// elements — 8 GB of buffers, far past any memory budget, so like addWorm
// it panics rather than errors.
type i32Arena struct {
	buf []int32
}

// alloc returns the offset of n fresh elements. Contents are unspecified —
// callers overwrite every element or zero it themselves.
func (a *i32Arena) alloc(n int) int32 {
	off := len(a.buf)
	if n > MaxHorizon-off {
		panic(fmt.Sprintf("vcsim: worm buffers need %d int32s past MaxHorizon", off+n-MaxHorizon))
	}
	a.buf = slices.Grow(a.buf, n)[:off+n]
	return int32(off)
}

// reset rewinds the arena; previously allocated offsets become reusable
// storage and must no longer be referenced.
func (a *i32Arena) reset() { a.buf = a.buf[:0] }

// bufSpan is a retired worm buffer on Sim.bufFree: its arena offset and
// capacity, which can exceed what its last worm used.
type bufSpan struct{ off, cap int32 }

// newBuf returns the offset of a buffer for n int32s. A buffer's capacity
// is kept in the arena element just before it, so freeBuf can recycle it
// whole however little of it its worm used; the empty buffer (a zero-edge
// rigid path) is offset 0, which no real buffer has, and is never recycled.
// Retired buffers are reused when the most recent one fits (at steady state
// open-loop workloads produce near-uniform sizes, so injection allocates
// nothing), else the arena is bumped.
func (si *Sim) newBuf(n int) int32 {
	if n == 0 {
		return 0
	}
	if k := len(si.bufFree); k > 0 && int(si.bufFree[k-1].cap) >= n {
		off := si.bufFree[k-1].off
		si.bufFree = si.bufFree[:k-1]
		return off
	}
	off := si.arena.alloc(n+1) + 1
	si.arena.buf[off-1] = int32(n)
	return off
}

// freeBuf retires a finished worm's buffer: recycled through bufFree in
// incremental mode, left to the arena otherwise (batch runs load everything
// up front, so recycling would just pin the whole workload's paths).
//
//wormvet:hotpath
func (si *Sim) freeBuf(w *worm) {
	if si.recycle && w.off > 0 {
		si.bufFree = append(si.bufFree, bufSpan{w.off, si.arena.buf[w.off-1]})
	}
	w.off = -1
}

// path returns an in-flight worm's path edges; prog returns a deep worm's
// per-flit progress, behind them: prog[j] = edges flit j has crossed,
// non-increasing in j. Both alias the arena; a finished worm has neither.
//
//wormvet:hotpath
func (si *Sim) path(w *worm) []int32 { return si.arena.buf[w.off : w.off+w.d] }

//wormvet:hotpath
func (si *Sim) prog(w *worm) []int32 {
	o := w.off + w.d
	return si.arena.buf[o : o+w.l]
}

// edgeRec is everything a lane event needs to know about one edge, in one
// naturally aligned 8-byte word: a header grant (laneFree-- and the
// dirtyMax bit), a tail release (relLane++ and the dirty bit) and the
// step-end fold each touch one cache line instead of one per parallel
// array. On a wide network at light load an edge is touched about once a
// step and none of this state is L1-resident (sparse-wide: 98 304 edges),
// so with one array per field those first-touch loads were 35% of the run.
//
//   - laneFree is the number of lane grants still available on the edge
//     this step: B minus persistent occupancy minus this step's uncommitted
//     grants minus fault kill debt (which may drive it negative while
//     occupants drain) — the quantity every capacity check actually wants,
//     one counter instead of a slotsUsed+grants pair.
//   - relLane accumulates this step's lane releases, which stay invisible
//     until applyStepEnd folds them into laneFree (two-phase model). A worm
//     holds at most one lane per edge and releases it at most once a step,
//     so relLane ≤ B ≤ MaxLanes and 16 bits are plenty. Zero between steps.
//   - dirtyFlag: bit 1, the edge is on Sim.dirty; bit 2, on Sim.dirtyMax.
//   - waiters: low bit set while some worm may be parked on the edge's
//     lane or flit wait queue. park sets it; applyStepEnd clears it once
//     wakeEdge has left both queues empty; Reset zeroes it and RestoreSim
//     rebuilds it from the heaps it read. So "queue non-empty ⇒ bit set"
//     always holds (CheckInvariants asserts it) and the fold reads no
//     wait-queue slice header — 24 bytes per edge, 2.3 MB of them on
//     sparse-wide — for an edge nobody waits on. The converse may fail:
//     flushParked and deadlock stamping empty queues without visiting the
//     record, and the stale bit then costs one wakeEdge over empty queues.
//     Dead-edge waits (faultQ) have their own wake path and never set it.
//
// The layout is measured, not guessed (sparse-wide wall_s against the
// six-array parent, ISSUE 20): this record −13%; a 12-byte record with a
// 32-bit relLane −9%; a 32-byte record that also holds crossings, flitFree
// and relFlit +10% (the per-edge working set grows from 0.9 MB to 3.1 MB);
// the finalSeen/bodySeen bits moved in: nothing on sparse-wide, +1.8% on
// knee-rigid. TestHotLayout pins the size.
type edgeRec struct {
	laneFree  int32
	relLane   int16
	dirtyFlag uint8
	waiters   uint8
}

// Run simulates the message set under the given per-message release times
// (release[i] is the earliest flit step at which message i may start; nil
// means all release at 0) and returns the result. It is a thin batch
// wrapper over the incremental Sim engine: all messages are loaded up
// front and the simulation is drained to completion.
func Run(s *message.Set, release []int, cfg Config) Result {
	sim := newBatchSim(s, release, cfg)
	sim.Drain()
	return sim.Result()
}

// Sim is the incremental simulation engine: a resumable simulator state
// that messages can be injected into while time advances. The lifecycle
// is
//
//	sim, err := NewSim(g, cfg)        // cfg.MaxSteps must be explicit
//	id, err := sim.Inject(msg, t)     // any time, for any release ≥ Now()
//	err = sim.Step()                  // advance exactly one flit step
//	err = sim.StepTo(t)               // advance to t, skipping idle spans
//	sim.Drain()                       // run until empty/deadlock/horizon
//	res := sim.Result()               // snapshot, callable at any point
//	sim.Reset()                       // back to empty, retaining storage
//
// Step advances one flit step even when no message is eligible (idle
// steps model real time in open-loop workloads); StepTo and Drain instead
// fast-forward across idle gaps (see NextEventTime), which is what the
// batch Run wrapper and the open-loop traffic driver use. Completion of
// individual messages is observable through Config.OnComplete. A Sim must
// not be shared across goroutines.
type Sim struct {
	cfg    Config
	b      int
	cap    int   // per-edge flit crossings per step
	bI32   int32 // int32 mirrors of b/cap for the hot loops
	capI32 int32
	// Buffer architecture (see deep.go): lane depth d, the shared-pool
	// flag, and their derived switches. deepMode selects the flit-level
	// engine; the d = 1 static configuration keeps the rigid engine and
	// its exact pre-existing behavior.
	depth    int32
	shared   bool
	deepMode bool
	poolCap  int32 // B·d flit credits per edge (deep mode)

	// Worm storage: chunked arena (stable addresses, O(1) growth) plus the
	// int32 arena holding every path and flit-progress buffer. worms are
	// indexed by dense message ID; numWorms is the count. bufFree recycles
	// finished worms' buffers into later Injects (incremental mode only,
	// see freeBuf). A chunk whose worms have all finished is sealed
	// (seal.go): its wormChunks entry goes nil, its records are encoded
	// into chunks[i].sealed, a piece of one of the blocks in sealed (the
	// first sealedInUse of them hold records; Reset keeps the rest), and
	// the chunk itself goes onto spare for addWorm to reuse. toSeal queues
	// chunks for applyStepEnd; sealScratch is where one is encoded.
	wormChunks  []*wormChunk
	chunks      []chunkMeta
	numWorms    int
	arena       i32Arena
	recycle     bool
	bufFree     []bufSpan
	sealed      [][]byte
	sealedInUse int
	sealScratch []byte
	toSeal      []int
	spare       []*wormChunk

	// pending holds release keys (release<<32 | id, a policy-independent
	// encoding whose uint64 order IS (release, id) order) for worms whose
	// release time has not arrived; worms move to active as their release
	// times pass, so steps never scan unreleased worms (schedules can
	// spread releases over a long horizon). pendHead is the consume
	// cursor: admissions advance it instead of re-slicing, and the insert
	// path compacts the live window back to the front when the backing
	// array fills — a front-resliced slice would otherwise crawl through
	// its array and reallocate ~once per wrap for the whole life of an
	// open-loop run.
	pending  []uint64
	pendHead int
	// active holds the policy keys (worm.key — the worm index rides in
	// the low 32 bits) of released, incomplete, unparked worms. The
	// wakeup engine keeps it directly in policy order (ID for ArbByID,
	// (release, id) for ArbAge, admission order — with parked worms left
	// in place — for ArbRandom), so ordering operations — merges, heap
	// sifts, deadlock sorts — compare dense integers and never chase worm
	// structs. The naive scan keeps it in admission order, i.e.
	// (release, id).
	active []uint64
	// byID is the naive scan's active list in plain ID order,
	// materialized lazily the first time a staggered admission appends a
	// lower ID behind a higher one. While nil, active itself is
	// ID-ordered and ArbByID uses it directly; once materialized it is
	// maintained incrementally (binary insert on admit, filter on reap)
	// so steps never re-sort. The wakeup engine never needs it.
	byID []uint64
	now  int

	// Per-edge credit state, updated in place: edges[e] packs the lane
	// counters, the dirty-list membership bits and the waiters bit into one
	// 8-byte record (see edgeRec). In deep mode edges[e].laneFree counts
	// lanes (distinct worms buffered) and flitFree/relFlit do the same for
	// the B·d flit credits, as their own arrays — only the deep engine
	// reads them, and widening the record costs the rigid kernel more than
	// it saves the deep one (edgeRec has the numbers).
	edges    []edgeRec
	flitFree []int32 // deep mode only
	relFlit  []int32 // deep mode only
	// crossings is the per-edge bandwidth meter, epoch-stamped so it
	// never needs clearing: the upper 32 bits hold step+1, the lower the
	// crossing count within that step. A stale stamp reads as zero, so
	// body-flit crossings touch no end-of-step state at all — the dirty
	// list below carries only credit events, the ones wakeups care about.
	//
	// Lane-implied bandwidth. On a body (non-final) edge of the rigid
	// model the meter can never refuse anyone while cap == B, because
	// bandwidth there is implied by lane ownership:
	//
	//   - every flit that crosses a body edge lands in a lane its worm
	//     holds there once the step commits — a lane it already held, or
	//     the one its header was granted this step — and at most B worms
	//     hold lanes on an edge (a grant needs laneFree > 0);
	//   - a worm crosses each edge at most once per step per lane it holds;
	//   - the worm whose tail releases a lane this step does not cross the
	//     released edge (its crossed interval starts one edge later), and
	//     the release stays invisible until step end, so nobody is granted
	//     that lane in its place;
	//   - fault kill debt only lowers laneFree, so it removes grants and
	//     never adds a crosser.
	//
	// So a body edge sees at most B crossings a step and every rival of a
	// crossing worm counts at most B−1. The one edge crossed without
	// holding a lane is a worm's final edge (the delivery buffer is
	// external), where any number of worms can meet. While no edge serves
	// in both roles (laneImplied), tryAdvance therefore meters final edges
	// only, and wakeEdge may wake by free-slot count; Config.CheckInvariants
	// keeps every edge metered and re-proves the bound on each run.
	crossings []uint64
	// dirty lists the edges with credit releases this step — the only
	// edges whose counters need folding and whose wait queues can need a
	// wake (free credit rises exclusively through releases; an edge that
	// saw only grants this step is at or below the level every parked
	// worm already failed against). dirtyMax lists grant-only edges,
	// which owe nothing at step end but a MaxOccupied probe. Both
	// membership bits live in edgeRec.dirtyFlag.
	dirty    []int32
	dirtyMax []int32

	// Wakeup-engine state (nil/zero under Config.NaiveScan). waitQ[e]
	// holds the worms parked on edge e as a min-heap in key order, so
	// a slot event wakes only the waiters that could actually win the
	// freed slots. Under the deterministic policies parked worms leave
	// the active list entirely, so a step costs O(worms that can
	// plausibly move); under ArbRandom they stay in it — the shuffle must
	// cover every active worm to keep the RNG stream identical to the
	// naive scan — and are skipped without an advance attempt.
	naive bool
	waitQ [][]uint64
	// waitQFlit is the deep shared-pool engine's second per-edge queue:
	// worms whose blocked flit needs only a pool credit (resume condition
	// flitFree > 0), kept apart from lane-acquisition waiters (laneFree,
	// and under a shared pool flitFree, > 0) so wakeEdge can test each
	// queue's exact resume condition. Nil outside shared deep mode.
	waitQFlit  [][]uint64
	parked     int   // worms currently parked
	parkStreak int32 // park hysteresis (Config.ParkStreak; default 8)

	// Edge-role classification behind the free-slot-count wake rule (see
	// wakeEdge). A final-edge crossing consumes bandwidth without holding
	// a buffer slot, so on workloads where some edge is one message's
	// final edge and another's body edge, a woken worm can decline its
	// freed slot by failing bandwidth on a body edge even when cap == B.
	// finalSeen/bodySeen record the roles each edge has appeared in;
	// mixedFinal flips — permanently — the first time an edge is seen in
	// both, downgrading slot events to whole-queue wakes. Butterfly
	// workloads (every edge into an output is final for all paths through
	// it) never flip and keep the optimized wake. Rigid wakeup mode only.
	finalSeen  []bool
	bodySeen   []bool
	mixedFinal bool

	// Reused per-step scratch so the hot loop is allocation-free at
	// steady state: the ArbRandom shuffle copy, the naive scan's blocked
	// list, and the wakeup engine's woken-worm batch and merge buffer
	// (woken worms re-enter the active list through one sorted merge per
	// step — per-worm sorted inserts would make waking a long queue
	// quadratic in its length).
	orderScratch   []uint64
	blockedScratch []message.ID
	wokenScratch   []uint64
	mergeScratch   []uint64

	shuffler *rng.Source

	// Flight-recorder sinks (Config.Metrics / Config.Trace). Both nil in
	// measured configurations; every hot-path use is nil-gated.
	met *telemetry.Metrics
	trc *telemetry.Trace

	// Fault plane (Config.Faults; everything below is nil/zero — and the
	// per-step cost one predictable branch — when no schedule is
	// attached). Events are consumed in schedule order through faultIdx:
	// normally at the top of applyStepEnd (events with Step ≤ now+1, so a
	// revive folds exactly like a credit release and wakes waiters), and
	// directly at the top of step() to catch up after a StepTo/Drain jump
	// (safe: jumps only happen with nothing in flight). deadEdge marks
	// dead edges; killedLanes counts kill debt per edge (laneFree may go
	// negative while occupants drain); faultQ parks worms blocked on a
	// dead edge (revival wakes the whole queue); faultSince tracks each
	// edge's open outage start for the telemetry fault-time heatmap.
	faults      fault.Schedule
	faultIdx    int
	lastRevive  int // largest revive step in the schedule; -1 when none
	deadEdge    []bool
	killedLanes []int32
	faultSince  []int32
	faultQ      [][]uint64
	deadEdges   int // count of currently dead edges
	killedTotal int // count of currently killed lanes, all edges
	retryMax    int // normalized Config.Retry
	retryBase   int32
	retryCap    int32
	aborted     int
	faultDead   bool // deadlock declared with dead resources present

	totalStalls int
	flitHops    int64
	maxOccupied int
	delivered   int
	dropped     int
	deadlocked  bool
	truncated   bool
	blockedIDs  []message.ID
	maxSteps    int
}

// emptySim builds a Sim with no messages over a network of numEdges
// physical channels. Both constructors (batch and incremental) and
// RestoreSim share it; each has put cfg through ValidateConfig first, which
// is where every range the narrowings below rely on is enforced.
func emptySim(numEdges int, cfg Config) *Sim {
	depth := cfg.LaneDepth
	if depth == 0 {
		depth = 1
	}
	parkStreak := cfg.ParkStreak
	if parkStreak == 0 {
		parkStreak = defaultParkStreak
	}
	si := &Sim{
		cfg:        cfg,
		b:          cfg.VirtualChannels,
		cap:        cfg.VirtualChannels,
		depth:      int32(depth),
		shared:     cfg.SharedPool,
		deepMode:   depth > 1 || cfg.SharedPool,
		naive:      cfg.NaiveScan,
		parkStreak: int32(parkStreak),
		edges:      make([]edgeRec, numEdges),
		crossings:  make([]uint64, numEdges),
		maxSteps:   cfg.MaxSteps,
	}
	if cfg.RestrictedBandwidth {
		si.cap = 1
	}
	si.bI32 = int32(si.b)           //wormvet:allow horizon -- ValidateConfig bounds VirtualChannels ≤ MaxLanes
	si.capI32 = int32(si.cap)       //wormvet:allow horizon -- cap ∈ {1, b}
	si.poolCap = si.bI32 * si.depth // ≤ MaxHorizon by ValidateConfig
	for e := range si.edges {
		si.edges[e].laneFree = si.bI32
	}
	if si.deepMode {
		si.flitFree = make([]int32, numEdges)
		si.relFlit = make([]int32, numEdges)
		for e := range si.flitFree {
			si.flitFree[e] = si.poolCap
		}
	}
	if cfg.Arbitration == ArbRandom {
		si.shuffler = rng.New(cfg.Seed)
	}
	si.met = cfg.Metrics
	si.trc = cfg.Trace
	if si.met != nil {
		si.met.EnsureEdges(numEdges)
	}
	if !si.naive {
		si.waitQ = make([][]uint64, numEdges)
		if si.deepMode && si.shared {
			si.waitQFlit = make([][]uint64, numEdges)
		}
		if !si.deepMode {
			si.finalSeen = make([]bool, numEdges)
			si.bodySeen = make([]bool, numEdges)
		}
	}
	si.lastRevive = -1
	if len(cfg.Faults) > 0 {
		si.faults = cfg.Faults
		si.lastRevive = cfg.Faults.LastRevive()
		si.deadEdge = make([]bool, numEdges)
		si.killedLanes = make([]int32, numEdges)
		si.faultSince = make([]int32, numEdges)
		for e := range si.faultSince {
			si.faultSince[e] = -1
		}
		if !si.naive {
			si.faultQ = make([][]uint64, numEdges)
		}
		si.retryMax = cfg.Retry.MaxAttempts
		base, bcap := cfg.Retry.Backoff, cfg.Retry.BackoffCap
		if base <= 0 {
			base = 16
		}
		if bcap <= 0 {
			bcap = 1024
		}
		si.retryBase = int32(base) //wormvet:allow horizon -- validateFaults bounds Backoff ≤ MaxHorizon
		si.retryCap = int32(bcap)  //wormvet:allow horizon -- validateFaults bounds BackoffCap ≤ MaxHorizon
	}
	return si
}

// Reset returns the simulator to its just-constructed state over the same
// network and Config, retaining every allocation: worm chunks, the
// path/progress arena, wait queues, and all per-step scratch. A driver
// that replays runs of similar shape through one Sim therefore performs
// no steady-state allocation at all (the open-loop traffic Runner and the
// benchmark suite rely on this). Results are byte-identical to a fresh
// NewSim with the same Config — the shuffler is reseeded from Config.Seed.
func (si *Sim) Reset() {
	for e := range si.edges {
		si.edges[e] = edgeRec{laneFree: si.bI32}
		si.crossings[e] = 0
	}
	if si.deepMode {
		for e := range si.flitFree {
			si.flitFree[e] = si.poolCap
			si.relFlit[e] = 0
		}
	}
	if si.waitQ != nil {
		for e := range si.waitQ {
			si.waitQ[e] = si.waitQ[e][:0]
		}
	}
	if si.waitQFlit != nil {
		for e := range si.waitQFlit {
			si.waitQFlit[e] = si.waitQFlit[e][:0]
		}
	}
	if si.finalSeen != nil {
		for e := range si.finalSeen {
			si.finalSeen[e] = false
			si.bodySeen[e] = false
		}
	}
	si.mixedFinal = false
	if si.faults != nil {
		si.faultIdx = 0
		for e := range si.deadEdge {
			si.deadEdge[e] = false
			si.killedLanes[e] = 0
			si.faultSince[e] = -1
		}
		if si.faultQ != nil {
			for e := range si.faultQ {
				si.faultQ[e] = si.faultQ[e][:0]
			}
		}
		si.deadEdges = 0
		si.killedTotal = 0
		si.aborted = 0
		si.faultDead = false
	}
	for _, c := range si.wormChunks {
		if c != nil {
			si.spare = append(si.spare, c)
		}
	}
	si.wormChunks = si.wormChunks[:0]
	si.chunks = si.chunks[:0]
	for i := range si.sealed[:si.sealedInUse] {
		si.sealed[i] = si.sealed[i][:0]
	}
	si.sealedInUse = 0
	si.toSeal = si.toSeal[:0]
	si.numWorms = 0
	si.arena.reset()
	si.pending = si.pending[:0]
	si.pendHead = 0
	si.active = si.active[:0]
	si.byID = nil
	si.dirty = si.dirty[:0]
	si.dirtyMax = si.dirtyMax[:0]
	si.orderScratch = si.orderScratch[:0]
	si.blockedScratch = si.blockedScratch[:0]
	si.wokenScratch = si.wokenScratch[:0]
	si.mergeScratch = si.mergeScratch[:0]
	si.bufFree = si.bufFree[:0]
	si.parked = 0
	si.now = 0
	si.totalStalls = 0
	si.flitHops = 0
	si.maxOccupied = 0
	si.delivered = 0
	si.dropped = 0
	si.deadlocked = false
	si.truncated = false
	si.blockedIDs = nil
	if si.shuffler != nil {
		si.shuffler.Reseed(si.cfg.Seed)
	}
}

// SetSeed replaces Config.Seed for the runs that follow: the next Reset
// reseeds the ArbRandom shuffle from it, and snapshots record it. It lets a
// driver that replays one configuration under a series of seeds (the
// saturation search's probes) keep one Sim. The run in progress, if any,
// is not disturbed — call it before Reset.
func (si *Sim) SetSeed(seed uint64) { si.cfg.Seed = seed }

// pendLen, pendFirst, pendPush and the admit loop manage the pending
// window [pendHead:len(pending)).
//
//wormvet:hotpath
func (si *Sim) pendLen() int { return len(si.pending) - si.pendHead }

//wormvet:hotpath
func (si *Sim) pendFirst() uint64 { return si.pending[si.pendHead] }

// pendPush inserts release key k into the pending window, keeping it
// sorted; k lands before the first strictly larger entry (keys are
// unique — the id half discriminates same-release entries, including
// the old ids fault retries re-insert). Amortized allocation-free: when
// the backing array is exhausted the live window is compacted to the
// front first.
func (si *Sim) pendPush(k uint64) {
	if len(si.pending) == cap(si.pending) && si.pendHead > 0 {
		n := copy(si.pending, si.pending[si.pendHead:])
		si.pending = si.pending[:n]
		si.pendHead = 0
	}
	live := si.pending[si.pendHead:]
	pos := sort.Search(len(live), func(i int) bool { return live[i] > k })
	si.pending = append(si.pending, 0)
	live = si.pending[si.pendHead:]
	copy(live[pos+1:], live[pos:])
	live[pos] = k
}

// policyKey computes a worm's arbitration-order key (see worm.key). The
// worm index always rides in the low 32 bits, so a key doubles as a
// reference to its worm (see wormK).
//
//wormvet:keypack
func (si *Sim) policyKey(release, id int) uint64 {
	if si.cfg.Arbitration == ArbAge {
		return uint64(release)<<32 | uint64(uint32(id))
	}
	return uint64(uint32(id))
}

// relKey encodes (release, id) so that uint64 order is exactly
// (release, id) order — the pending list's invariant ordering under every
// policy. Like policy keys, the low 32 bits are the worm index.
//
//wormvet:keypack
func relKey(release, id int) uint64 {
	return uint64(release)<<32 | uint64(uint32(id))
}

// keyRelease extracts the release (upper) half of a packed
// (release, id) key: the step at which the worm becomes eligible.
//
//wormvet:keypack
//wormvet:nonalloc
func keyRelease(k uint64) int { return int(k >> 32) }

// keyID extracts the worm-index (lower) half of a packed key.
//
//wormvet:keypack
//wormvet:nonalloc
func keyID(k uint64) int { return int(uint32(k)) }

// wormK resolves a list entry (policy or release key) to its worm.
//
//wormvet:hotpath
func (si *Sim) wormK(k uint64) *worm { return si.worm(keyID(k)) }

// markPathRoles folds one message's path into the edge-role
// classification. When the classification turns mixed with worms already
// parked (only possible in incremental mode — batch loads classify
// everything before the first step), the free-slot-count decisions behind
// those parks are stale, so every parked worm is flushed back to the
// active list; all later wakes use the whole-queue rule.
func (si *Sim) markPathRoles(p []int32) {
	if si.finalSeen == nil || si.mixedFinal || len(p) == 0 {
		return
	}
	last := p[len(p)-1]
	si.finalSeen[last] = true
	if si.bodySeen[last] {
		si.mixedFinal = true
	}
	for _, e := range p[:len(p)-1] {
		si.bodySeen[e] = true
		if si.finalSeen[e] {
			si.mixedFinal = true
		}
	}
	if si.mixedFinal && si.parked > 0 {
		si.flushParked()
	}
}

// ValidateConfig is the one statement of what a Config must satisfy
// before a Sim is built over numEdges channels; NewSim and RestoreSim
// return its error, the batch loader panics with it. Every rejection
// wraps ErrBadConfig or — for the 32-bit time-counter bound —
// ErrOverHorizon, so callers can errors.Is-classify it. It allocates
// nothing in proportion to the network (numEdges only bounds a fault
// schedule's edge IDs), so a service calls it to refuse a submission
// before building what the submission describes.
func ValidateConfig(numEdges int, cfg Config) error {
	if cfg.VirtualChannels < 1 {
		return fmt.Errorf("%w: VirtualChannels %d < 1", ErrBadConfig, cfg.VirtualChannels)
	}
	if cfg.VirtualChannels > MaxLanes {
		return fmt.Errorf("%w: VirtualChannels %d exceeds MaxLanes %d", ErrBadConfig, cfg.VirtualChannels, MaxLanes)
	}
	if cfg.LaneDepth < 0 {
		return fmt.Errorf("%w: LaneDepth %d < 0", ErrBadConfig, cfg.LaneDepth)
	}
	// The B·d flit pool is a 32-bit counter per edge. B ≤ MaxLanes, so the
	// quotient test cannot itself overflow.
	if cfg.LaneDepth > MaxHorizon/cfg.VirtualChannels {
		return fmt.Errorf("%w: VirtualChannels %d × LaneDepth %d overflows the 32-bit pool layout", ErrBadConfig, cfg.VirtualChannels, cfg.LaneDepth)
	}
	if cfg.ParkStreak < 0 {
		return fmt.Errorf("%w: ParkStreak %d < 0", ErrBadConfig, cfg.ParkStreak)
	}
	if cfg.MaxSteps > MaxHorizon {
		return fmt.Errorf("%w: MaxSteps %d exceeds MaxHorizon %d", ErrOverHorizon, cfg.MaxSteps, MaxHorizon)
	}
	return validateFaults(numEdges, cfg)
}

// spawn is where a worm is born, for the batch loader and Inject alike:
// it checks the message and its release time, copies the path (and, deep
// mode, zeroes the progress counters behind it) into one buffer and returns
// the new worm's id. Everything is validated before a buffer is taken, so a
// rejected message costs no freelist entry and no arena space. Queueing
// the release key is the caller's job — Inject inserts in order, the
// batch loader appends everything and sorts once.
func (si *Sim) spawn(msg message.Message, release int) (int, error) {
	switch {
	case release < 0:
		return -1, fmt.Errorf("%w: negative release time %d", ErrBadMessage, release)
	case release < si.now:
		return -1, fmt.Errorf("%w: release %d is before the current step %d", ErrPastRelease, release, si.now)
	case release > MaxHorizon:
		return -1, fmt.Errorf("%w: release %d exceeds MaxHorizon %d", ErrOverHorizon, release, MaxHorizon)
	case msg.Length < 1:
		return -1, fmt.Errorf("%w: message length %d < 1", ErrBadMessage, msg.Length)
	case msg.Length > MaxHorizon || len(msg.Path) > MaxHorizon:
		return -1, fmt.Errorf("%w: message length %d / path %d exceeds MaxHorizon %d", ErrOverHorizon, msg.Length, len(msg.Path), MaxHorizon)
	}
	for _, e := range msg.Path {
		if int(e) < 0 || int(e) >= len(si.edges) {
			return -1, fmt.Errorf("%w: path edge %d out of range [0,%d)", ErrBadMessage, e, len(si.edges))
		}
	}
	// The buffer is filled, and the path's edge roles folded in, before the
	// record is written to its fresh slot: writing the record first cost
	// sparse-wide's injection-heavy run ≈ 8% in-process.
	d := int32(len(msg.Path))
	n := len(msg.Path)
	if si.deepMode {
		n += msg.Length
	}
	off := si.newBuf(n)
	p := si.arena.buf[off : off+d]
	for j, e := range msg.Path {
		p[j] = int32(e)
	}
	if si.deepMode {
		clear(si.arena.buf[off+d:][:msg.Length])
	}
	si.markPathRoles(p)
	w, id := si.addWorm()
	*w = worm{
		off:        off,
		d:          d,
		l:          int32(msg.Length),
		release:    int32(release),
		key:        si.policyKey(release, id),
		injectTime: -1,
		end:        -1,
		parkedAt:   -1,
		lastInj:    -1,
		stretched:  true,
		blockedOn:  -1,
	}
	return id, nil
}

// newBatchSim loads a complete message set, deriving the MaxSteps safety
// bound from the workload when the config leaves it at 0 (which is only
// meaningful here: the batch workload is finite and fully known). A bad
// config or workload panics with the typed validation error — the same
// ErrBadConfig / ErrBadMessage / ErrOverHorizon family NewSim and Inject
// return.
func newBatchSim(s *message.Set, release []int, cfg Config) *Sim {
	if err := ValidateConfig(s.G.NumEdges(), cfg); err != nil {
		panic(err)
	}
	n := s.Len()
	if release != nil && len(release) != n {
		panic(fmt.Errorf("%w: %d release times for %d messages", ErrBadMessage, len(release), n))
	}
	si := emptySim(s.G.NumEdges(), cfg)
	si.pending = make([]uint64, 0, n)
	si.active = make([]uint64, 0, n)
	work := 0
	maxRelease := 0
	for i := 0; i < n; i++ {
		msg := s.Get(message.ID(i))
		rel := 0
		if release != nil {
			rel = release[i]
		}
		if rel > maxRelease {
			maxRelease = rel
		}
		id, err := si.spawn(msg, rel)
		if err != nil {
			panic(fmt.Errorf("message %d: %w", i, err))
		}
		if si.deepMode {
			// A deep step may move as little as one flit, so the safety
			// bound counts flit moves (L·D per worm), not worm moves.
			work += len(msg.Path)*msg.Length + msg.Length
		} else {
			work += len(msg.Path) + msg.Length
		}
		si.pending = append(si.pending, relKey(rel, id))
	}
	if si.maxSteps == 0 {
		// Any non-deadlocked run advances at least one worm per step, so
		// total steps ≤ maxRelease + Σ(D_i + L_i). Deadlocks are detected
		// separately, so this bound is a pure safety net.
		si.maxSteps = maxRelease + work + n + 16
		if si.maxSteps > MaxHorizon {
			si.maxSteps = MaxHorizon
		}
	}
	// Pending is kept sorted by (release, id) — for release keys, plain
	// integer order; worms enter the active list in that order, which all
	// policies treat as the base ordering.
	slices.Sort(si.pending)
	return si
}

// inFlight counts released, incomplete worms the stepper still owes work
// to: the active list plus — for the policies that remove them from it —
// parked worms. (Under ArbRandom and the naive scan, parked worms never
// leave the active list, so the list length alone is the count.)
//
//wormvet:hotpath
func (si *Sim) inFlight() int {
	n := len(si.active)
	if !si.naive && si.cfg.Arbitration != ArbRandom {
		n += si.parked
	}
	return n
}

// admit moves pending worms whose release has arrived onto the active list.
//
//wormvet:hotpath
func (si *Sim) admit() {
	for si.pendHead < len(si.pending) && keyRelease(si.pending[si.pendHead]) <= si.now {
		idx := keyID(si.pending[si.pendHead])
		si.pendHead++
		si.enqueue(idx)
	}
	if si.pendHead == len(si.pending) && si.pendHead > 0 {
		// Window empty: rewind so the array is reused from the front.
		si.pending = si.pending[:0]
		si.pendHead = 0
	}
}

// enqueue places a newly released worm into the active-order structures.
// The wakeup engine keeps the active list directly in policy order (ID
// for ArbByID, (release, id) for ArbAge); the naive scan and ArbRandom
// append in admission order, with ArbByID's lazily materialized ID view
// maintained on the side exactly as before.
//
//wormvet:hotpath
func (si *Sim) enqueue(idx int) {
	key := si.worm(idx).key
	if !si.naive && si.cfg.Arbitration != ArbRandom {
		si.insertActive(key)
		return
	}
	if si.cfg.Arbitration == ArbByID {
		// Under ArbByID the policy key is the bare worm index, so key
		// comparisons below are ID comparisons.
		if n := len(si.active); si.byID == nil && n > 0 && key < si.active[n-1] {
			// First out-of-order admission: active is still ID-sorted,
			// so it seeds the ID-ordered view (worm indices are IDs).
			si.byID = append(make([]uint64, 0, cap(si.active)), si.active...) //wormvet:allow hotalloc -- one-time lazy materialization of the ID-ordered view
		}
		if si.byID != nil {
			pos := sort.Search(len(si.byID), func(i int) bool { return si.byID[i] >= key }) //wormvet:allow hotalloc -- binary search; the closure does not escape (escape harness)
			si.byID = append(si.byID, 0)
			copy(si.byID[pos+1:], si.byID[pos:])
			si.byID[pos] = key
		}
	}
	si.active = append(si.active, key)
}

// step advances the simulation by one flit step.
//
//wormvet:hotpath
func (si *Sim) step() {
	if si.faults != nil && si.faultIdx < len(si.faults) && si.faults[si.faultIdx].Step <= si.now {
		// A StepTo/Drain jump skipped scheduled fault events; apply them
		// directly before any advance attempt sees this step's state.
		si.applyFaults(si.now)
	}
	if m := si.met; m != nil {
		m.Inc(telemetry.CtrSteps)
	}
	if si.naive {
		si.stepNaive()
	} else {
		si.stepWakeup()
	}
}

// stepNaive is the retained original stepper — the differential oracle
// for the wakeup engine: every active worm is re-attempted every step,
// stalls are stamped eagerly, and nothing is ever parked.
//
//wormvet:hotpath
func (si *Sim) stepNaive() {
	order := si.active
	switch {
	case si.cfg.Arbitration == ArbRandom:
		si.orderScratch = append(si.orderScratch[:0], si.active...)
		order = si.orderScratch
		si.shuffler.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] }) //wormvet:allow hotalloc -- shuffle swap closure does not escape (escape harness)
	case si.cfg.Arbitration == ArbByID && si.byID != nil:
		// Staggered releases broke the active list's ID order; use the
		// incrementally maintained ID-ordered view.
		order = si.byID
	}

	moved := false
	droppedAny := false
	faultActed := false
	anyEligible := len(order) > 0
	blocked := si.blockedScratch[:0]

	for _, k := range order {
		w := si.wormK(k)
		ok, failEdge := si.tryMove(w)
		if ok {
			moved = true
			continue
		}
		// Failed to advance.
		if si.cfg.DropOnDelay {
			si.drop(w) //wormvet:allow hotalloc -- drop path: per-drop cost is accepted in drop-on-delay runs
			droppedAny = true
			continue
		}
		w.stalls++
		si.totalStalls++
		if si.faultRetriable(w, failEdge) {
			si.faultRetry(w) //wormvet:allow hotalloc -- fault-retry path: per-retry cost accepted under an outage
			faultActed = true
			continue
		}
		blocked = append(blocked, message.ID(w.id()))
	}
	si.blockedScratch = blocked

	// Reap before the step-end fold, which may seal the chunks of the worms
	// reap looks up — where the wakeup stepper's ArbRandom path reaps too.
	si.reap()
	si.applyStepEnd()
	si.now++

	if si.cfg.CheckInvariants {
		si.checkInvariants() //wormvet:allow hotalloc -- debug-gated by Config.CheckInvariants
	}

	if !moved && !droppedAny && !faultActed && anyEligible && !si.deadlockDeferred() {
		// Every eligible worm is slot-blocked and slots free only when
		// worms move; future releases cannot free slots, and no scheduled
		// revival remains that could. Frozen forever.
		si.deadlocked = true
		si.blockedIDs = append([]message.ID(nil), blocked...) //wormvet:allow hotalloc -- deadlock teardown: terminal, runs at most once
		si.finishAsDeadlocked()                               //wormvet:allow hotalloc -- deadlock teardown: terminal, runs at most once
	}
}

// tryMove dispatches a worm's advance attempt to the engine the buffer
// architecture selects: the rigid single-counter engine for the paper's
// d = 1 static model, the flit-level deep engine otherwise.
//
//wormvet:hotpath
func (si *Sim) tryMove(w *worm) (bool, int32) {
	if si.deepMode {
		return si.tryAdvanceDeep(w)
	}
	return si.tryAdvance(w)
}

// crossStamp is the epoch tag for this step's crossings entries: step+1
// in the upper 32 bits (the +1 keeps the first step distinct from the
// zero-initialized array). An entry below the stamp is from an earlier
// step and reads as zero crossings.
//
//wormvet:keypack
//wormvet:hotpath
func (si *Sim) crossStamp() uint64 { return uint64(si.now+1) << 32 }

// laneImplied reports whether the lane-implied bandwidth argument (see
// Sim.crossings) holds right now: full crossing capacity, and an edge-role
// classification that exists (rigid wakeup engine) and has not turned
// mixed. It is derived, not stored — an Inject that flips mixedFinal
// simply changes the answer from the next step on, and crossings is
// per-step scratch, so nothing needs repair. The naive scan keeps no role
// bits and so always meters every edge: it is the oracle for the elision.
//
//wormvet:hotpath
func (si *Sim) laneImplied() bool {
	return si.capI32 >= si.bI32 && si.finalSeen != nil && !si.mixedFinal
}

// tryAdvance attempts to move worm w one step, honoring buffer and
// bandwidth constraints. On success it performs the move and returns
// true. A slot failure returns the full edge, telling the wakeup engine
// where to park the worm (only a slot event on that edge can change the
// verdict). A bandwidth failure returns -1: crossing capacity resets
// every step, so the block is transient and the worm must simply retry.
//
//wormvet:hotpath
func (si *Sim) tryAdvance(w *worm) (bool, int32) {
	if w.d == 0 {
		// Source equals destination: delivered in the step after release.
		// Event times follow the Config.Trace convention — an event
		// processed in the step from t to t+1 reports time t+1 — exactly
		// like every positive-length path. No edge is crossed, so the ending
		// counts as an inject and a delivery but not as an advance.
		w.frontier = w.l // mark complete
		si.stampInject(w)
		si.retire(w, StatusDelivered)
		return true, -1
	}
	// The path, left open-ended: every index below is under d by the test
	// that guards it, and the one bounds check fewer than si.path(w) is
	// ≈ 1.5% of knee-rigid's in-process time.
	path := si.arena.buf[w.off:]
	// Fault plane: a dead edge grants no new reservations — the header
	// may not extend onto it. Flits behind the header are established
	// reservations and keep draining through the bandwidth loop below.
	if dead := si.deadEdge; dead != nil && w.frontier < w.d && dead[path[w.frontier]] {
		e := path[w.frontier]
		if m := si.met; m != nil {
			m.EdgeStall(telemetry.CtrStallFault, e)
		}
		return false, e | parkFaultBit
	}
	// Buffer constraint: crossing edge path[frontier] requires a free slot
	// unless it is the final edge (delivery buffer is external).
	needSlot := int32(-1)
	if w.frontier < w.d-1 {
		e := path[w.frontier]
		if si.edges[e].laneFree <= 0 {
			if m := si.met; m != nil {
				m.EdgeStall(telemetry.CtrStallLaneCredit, e)
			}
			return false, e
		}
		needSlot = e
	}
	// Bandwidth constraint: every edge a flit of this worm would cross
	// this step must still have crossing capacity. Under lane-implied
	// bandwidth (see Sim.crossings) a body edge cannot refuse, so only the
	// final edge path[d−1] is metered; CheckInvariants meters them all and
	// turns a body-edge refusal into a panic.
	stamp := si.crossStamp()
	lo, hi := w.crossed()
	implied := si.laneImplied()
	mlo := lo
	if implied && !si.cfg.CheckInvariants && mlo < w.d-1 {
		mlo = w.d - 1
	}
	for i := mlo; i <= hi; i++ {
		if cw := si.crossings[path[i]]; cw >= stamp && int32(cw-stamp) >= si.capI32 {
			if implied && i < w.d-1 {
				panic(fmt.Sprintf("vcsim: step %d: worm %d refused bandwidth on body edge %d (lane-implied bandwidth violated)", si.now, w.id(), path[i]))
			}
			if m := si.met; m != nil {
				m.EdgeStall(telemetry.CtrStallBandwidth, path[i])
			}
			return false, -1
		}
	}
	// Commit.
	if needSlot >= 0 {
		si.edges[needSlot].laneFree--
		si.touchMax(needSlot)
	}
	for i := mlo; i <= hi; i++ {
		e := path[i]
		cw := si.crossings[e]
		if cw < stamp {
			cw = stamp
		}
		si.crossings[e] = cw + 1
	}
	si.flitHops += int64(hi - lo + 1)
	// Tail release: the slot at path[frontier−L] frees when the tail flit
	// leaves it (visible next step).
	if rel := w.frontier - w.l; rel >= 0 && rel <= w.d-2 {
		e := path[rel]
		si.edges[e].relLane++
		si.touch(e)
	}
	if w.injectTime < 0 {
		si.stampInject(w)
	}
	w.frontier++
	if m := si.met; m != nil {
		m.Inc(telemetry.CtrAdvances)
	}
	if tr := si.trc; tr != nil {
		tr.Advance(si.now+1, w.id(), w.frontier)
	}
	if w.complete() {
		si.retire(w, StatusDelivered)
	} else {
		w.status = StatusActive
	}
	return true, -1
}

// stampInject records the step a worm's header first enters the network
// (or, for a zero-length path, its one and only step).
//
//wormvet:hotpath
func (si *Sim) stampInject(w *worm) {
	w.injectTime = int32(si.now + 1)
	if m := si.met; m != nil {
		m.Inc(telemetry.CtrInjects)
	}
	if tr := si.trc; tr != nil {
		tr.Inject(si.now+1, w.id(), w.d)
	}
}

// retire is how a message ends, whichever way it ends: delivered (rigid,
// deep or zero-length), dropped by drop-on-delay, or aborted by the
// fault-retry policy. It stamps the final status and event time, moves
// the matching tally and counter, recycles the worm's buffers and fires
// the hooks — OnComplete last, exactly once, with the final stats. Event
// times follow the Config.Trace convention (an ending processed in the
// step from t to t+1 reports t+1). An abort is deliberately quiet: the
// worm never entered the network, so there is no trace event to pair with
// one. The caller has already released whatever credits the worm held.
//
//wormvet:hotpath
func (si *Sim) retire(w *worm, status Status) {
	stamp := int32(si.now + 1)
	now := int(stamp)
	m, tr := si.met, si.trc
	w.status = status
	w.end = stamp
	switch status {
	case StatusDelivered:
		si.delivered++
		if m != nil {
			m.Inc(telemetry.CtrDelivers)
		}
		if tr != nil {
			tr.Deliver(now, w.id(), stamp-w.injectTime)
		}
	case StatusDropped:
		si.dropped++
		if m != nil {
			m.Inc(telemetry.CtrDrops)
		}
		if tr != nil {
			head := w.frontier
			if si.deepMode {
				head = si.prog(w)[0] // the deep engine keeps the header here, never in frontier
			}
			tr.Drop(now, w.id(), head)
		}
	case StatusAborted:
		si.aborted++
		if m != nil {
			m.Inc(telemetry.CtrFaultAborts)
		}
	}
	// The buffer is never consulted again; freeing it leaves a finished
	// worm its record, which stays in place — a step may still hold it —
	// until the worm's chunk has no unfinished worm left and applyStepEnd
	// seals it to a few bytes (seal.go; TestRetainedBytesPerMessage gates
	// what a long-lived Sim keeps per message).
	si.freeBuf(w)
	if cb := si.cfg.OnComplete; cb != nil {
		cb(message.ID(w.id()), w.messageStats()) //wormvet:allow hotalloc -- once-per-message completion hook
	}
	si.finishRecord(int(w.id()))
}

// drop discards worm w, releasing all buffer credits it occupies (visible
// next step, like any other release).
func (si *Sim) drop(w *worm) {
	if si.deepMode {
		si.releaseDeepWorm(w)
	} else if lo, hi, ok := w.span(); ok {
		path := si.path(w)
		for i := lo; i <= hi; i++ {
			e := path[i]
			si.edges[e].relLane++
			si.touch(e)
		}
	}
	si.retire(w, StatusDropped)
}

// touch records an edge with a credit release for end-of-step folding
// and wake checks, once per edge per step. Body-flit crossings are
// epoch-stamped and need neither; grant-only edges go through touchMax.
//
//wormvet:hotpath
func (si *Sim) touch(e int32) {
	if r := &si.edges[e]; r.dirtyFlag&1 == 0 {
		r.dirtyFlag |= 1
		si.dirty = append(si.dirty, e)
	}
}

// touchMax records an edge that received a credit grant, for the
// MaxOccupied probe at step end. A grant can never wake a waiter — free
// credit only falls within a step, and every parked worm already failed
// against a level at least this high — so grant-only edges skip the fold
// and wake machinery entirely.
//
//wormvet:hotpath
func (si *Sim) touchMax(e int32) {
	if r := &si.edges[e]; r.dirtyFlag&2 == 0 {
		r.dirtyFlag |= 2
		si.dirtyMax = append(si.dirtyMax, e)
	}
}

// applyStepEnd folds this step's deferred releases into the in-place
// credit counters and — in the wakeup engine — wakes worms parked on any
// edge that saw a credit event (lane or, in deep mode, flit grant or
// release) this step. Those are exactly the events that can unblock a
// credit-parked worm: free credit only rises through releases, and a
// within-step grant (which could consume headroom ahead of a
// later-ordered contender) can only exist in the very step the worm
// parked. Body-flit crossings move no credit state — and, epoch-stamped,
// need no reset — so a worm queue is not re-scanned on every transit.
// Last come the chunks whose final worm finished this step: they are
// sealed here, once the advance loop has let go of every *worm (seal.go).
//
//wormvet:hotpath
func (si *Sim) applyStepEnd() {
	if m := si.met; m != nil {
		m.StepGauges(len(si.dirty), si.parked)
	}
	if si.faults != nil {
		// Fold fault events first: kills and revives move credits before
		// waiters are counted, and put their edge on the dirty list.
		si.applyFaults(si.now + 1)
	}
	for _, e := range si.dirty {
		r := &si.edges[e]
		r.dirtyFlag = 0
		r.laneFree += int32(r.relLane)
		r.relLane = 0
		if si.deepMode {
			si.flitFree[e] += si.relFlit[e]
			si.relFlit[e] = 0
		}
		// Dirty edges are exactly the ones whose persistent occupancy can
		// have changed, so folding the metrics integral here is exact.
		occ := si.probeOccupancy(e)
		if tr := si.trc; tr != nil {
			tr.Credit(si.now+1, e, occ)
		}
		if r.waiters != 0 {
			// Only park sets the bit, so the wakeup engine is running and
			// waitQ exists. The queues are read here, after the wake, and
			// only for an edge somebody was parked on.
			si.wakeEdge(e)
			if !si.queued(int(e)) {
				r.waiters = 0
			}
		}
	}
	si.dirty = si.dirty[:0]
	// Grant-only edges: occupancy may have peaked, nothing else owed.
	// (An edge also on the release list was fully handled above.)
	for _, e := range si.dirtyMax {
		r := &si.edges[e]
		if r.dirtyFlag == 0 {
			continue
		}
		r.dirtyFlag = 0
		si.probeOccupancy(e)
	}
	si.dirtyMax = si.dirtyMax[:0]
	si.mergeWoken()
	if len(si.toSeal) > 0 {
		si.sealQueued()
	}
}

// reap removes completed and dropped worms from the active list (and the
// ID-ordered view, when materialized), preserving order. Only the naive
// scan needs it; the wakeup stepper filters inline.
//
//wormvet:hotpath
func (si *Sim) reap() {
	si.active = si.reapList(si.active)
	if si.byID != nil {
		si.byID = si.reapList(si.byID)
	}
}

//wormvet:hotpath
func (si *Sim) reapList(list []uint64) []uint64 {
	keep := list[:0]
	for _, k := range list {
		w := si.wormK(k)
		st := w.status
		if st == StatusDelivered || st == StatusDropped || st == StatusAborted {
			continue
		}
		// A fault-retried worm went back to pending with a future
		// release; it re-enters the active structures on admission.
		if st == StatusWaiting && int(w.release) > si.now {
			continue
		}
		keep = append(keep, k)
	}
	return keep
}

// finishAsDeadlocked empties the worm lists so run() terminates.
func (si *Sim) finishAsDeadlocked() {
	if si.deadEdges > 0 || si.killedTotal > 0 {
		// Dead resources are still present: the freeze is (at least
		// partly) fault-induced, not purely a channel-dependency cycle.
		si.faultDead = true
	}
	si.active = si.active[:0]
	si.pending = si.pending[:0]
	si.pendHead = 0
}

// lanesInUse returns edge e's persistent lane occupancy (worms buffered in
// the rigid model, distinct worms in deep mode) — the quantity the
// pre-arena engine kept as slotsUsed. Occupancy counts flits in buffers,
// so kill debt — credits a fault removed without a flit — is subtracted.
//
//wormvet:hotpath
func (si *Sim) lanesInUse(e int) int32 {
	n := si.bI32 - si.edges[e].laneFree
	if si.killedLanes != nil {
		n -= si.killedLanes[e]
	}
	return n
}

// flitsInUse returns edge e's persistent flit occupancy (deep mode), net
// of kill debt like lanesInUse.
//
//wormvet:hotpath
func (si *Sim) flitsInUse(e int) int32 {
	n := si.poolCap - si.flitFree[e]
	if si.killedLanes != nil {
		n -= si.killedLanes[e] * si.depth
	}
	return n
}

// probeOccupancy reads edge e's buffer occupancy at step end — flits under
// the deep engine, lanes under the rigid one — into the MaxOccupied
// high-water mark and the metrics occupancy integral, and returns it.
//
//wormvet:hotpath
func (si *Sim) probeOccupancy(e int32) int32 {
	var occ int32
	if si.deepMode {
		occ = si.flitsInUse(int(e))
	} else {
		occ = si.lanesInUse(int(e))
	}
	if int(occ) > si.maxOccupied {
		si.maxOccupied = int(occ)
	}
	if m := si.met; m != nil {
		m.EdgeOccupancy(e, int64(occ), int64(si.now)+1)
	}
	return occ
}

// checkInvariants asserts model invariants; it panics on violation so test
// failures pinpoint the first bad step.
func (si *Sim) checkInvariants() {
	si.checkEdgeRecs()
	if si.deepMode {
		si.checkInvariantsDeep()
		return
	}
	// Dense per-edge counters, walked in edge order: with a map here a
	// multi-edge violation would surface whichever panic Go's randomized
	// map iteration reached first, making failure output flap run to run.
	occ := make([]int32, len(si.edges))
	for _, w := range si.records(true) {
		if w.status == StatusDropped || w.status == StatusDelivered || w.status == StatusAborted {
			continue
		}
		if lo, hi, ok := w.span(); ok {
			path := si.path(w)
			for j := lo; j <= hi; j++ {
				occ[path[j]]++
			}
		}
	}
	for e, c := range occ {
		if c != si.lanesInUse(e) {
			if c == 0 {
				panic(fmt.Sprintf("vcsim: step %d: edge %d has stale occupancy %d", si.now, e, si.lanesInUse(e)))
			}
			panic(fmt.Sprintf("vcsim: step %d: edge %d occupancy %d but slots in use %d", si.now, e, c, si.lanesInUse(e)))
		}
		if c > si.bI32 {
			panic(fmt.Sprintf("vcsim: step %d: edge %d holds %d > B=%d flits", si.now, e, c, si.b))
		}
	}
}

// checkEdgeRecs asserts the between-steps contract of every edgeRec, for
// both engines: the fold left no release or dirty bit behind (the codec
// relies on it — neither is serialized), and a non-empty lane or flit wait
// queue has its waiters bit set, without which applyStepEnd would never
// wake it.
func (si *Sim) checkEdgeRecs() {
	for e := range si.edges {
		r := si.edges[e]
		if r.relLane != 0 || r.dirtyFlag != 0 {
			panicf("vcsim: step %d: edge %d left the fold with relLane %d, dirtyFlag %d", si.now, e, r.relLane, r.dirtyFlag)
		}
		if r.waiters == 0 && si.waitQ != nil && si.queued(e) {
			panicf("vcsim: step %d: edge %d has parked worms but a clear waiters bit", si.now, e)
		}
	}
}

// Result snapshots the simulation state into a Result. It can be called
// at any point in a Sim's life; per-message stats of in-flight messages
// appear with their current (partial) values.
func (si *Sim) Result() Result {
	if m := si.met; m != nil {
		// Result calls are snapshot boundaries: sample arena occupancy (in
		// int32s) here rather than on the hot path.
		m.Arena(int64(len(si.arena.buf)), int64(cap(si.arena.buf)))
	}
	si.FoldFaultTime()
	res := Result{
		Delivered:       si.delivered,
		Dropped:         si.dropped,
		Aborted:         si.aborted,
		Deadlocked:      si.deadlocked,
		FaultDeadlocked: si.faultDead,
		Truncated:       si.truncated,
		TotalStalls:     si.totalStalls,
		FlitHops:        si.flitHops,
		MaxOccupied:     si.maxOccupied,
		PerMessage:      make([]MessageStats, si.numWorms),
		BlockedIDs:      si.blockedIDs,
	}
	last := 0
	for i, w := range si.records(false) {
		st := w.messageStats()
		// A parked worm's stall credit is stamped lazily; fold the span
		// it has sat parked (it would have failed every one of those
		// steps) into the snapshot without mutating engine state.
		if p := int(w.parkedAt); p >= 0 {
			st.Stalls += si.now - p
			res.TotalStalls += si.now - p
		}
		res.PerMessage[i] = st
		if st.DeliverTime > last {
			last = st.DeliverTime
		}
		if st.DropTime > last {
			last = st.DropTime
		}
	}
	// A deadlocked or truncated run keeps stepping past the last
	// delivery/drop; report the step the run actually stopped, not just
	// the last per-message event.
	if (si.deadlocked || si.truncated) && si.now > last {
		last = si.now
	}
	res.Steps = last
	return res
}
