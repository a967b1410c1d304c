package telemetry

import "fmt"

// EventKind discriminates structured trace events.
type EventKind uint8

// Event kinds emitted by the simulator, its one per-event output. (The
// space-time recorder in internal/trace reads advance/drop/deliver only.)
const (
	EvInject EventKind = iota + 1
	EvAdvance
	EvPark
	EvWake
	EvDeliver
	EvDrop
	EvCredit
	EvFault
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"", "inject", "advance", "park", "wake", "deliver", "drop", "credit", "fault",
}

// String returns the stable name of the event kind.
func (k EventKind) String() string {
	if k == 0 || k >= numEventKinds {
		return fmt.Sprintf("kind_%d", uint8(k))
	}
	return eventKindNames[k]
}

// Event is one fixed-size structured trace record.
//
//   - inject:  Msg = message ID, Arg = path length
//   - advance: Msg = message ID, Arg = new frontier (rigid) or head position
//   - park:    Msg = message ID, Arg = wait edge (parkFlitBit tags pool waits)
//   - wake:    Msg = message ID, Arg = wait edge it was parked on
//   - deliver: Msg = message ID, Arg = latency (deliver - inject)
//   - drop:    Msg = message ID, Arg = frontier at drop
//   - credit:  Msg = edge ID,    Arg = occupancy after release folding
//   - fault:   Msg = edge ID,    Arg = fault event kind (fault.Kind)
type Event struct {
	Time int32
	Msg  int32
	Arg  int32
	Kind EventKind
}

// maxEventTime clamps event timestamps into the int32 record field. The
// simulator horizon (vcsim.MaxHorizon) is far below this already.
const maxEventTime = 1<<31 - 1

// Trace is a fixed-capacity ring buffer of Events. Recording is
// allocation-free: when the ring fills, the newest event overwrites the
// oldest buffered one.
//
// A Trace must only be written by a single simulator at a time.
type Trace struct {
	buf     []Event
	start   int   // index of oldest buffered event
	n       int   // number of buffered events
	dropped int64 // events overwritten because the ring was full
}

// NewTrace returns a ring buffer holding up to capacity events (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, capacity)}
}

// add appends one event, overwriting the oldest when the ring is full.
//
//wormvet:hotpath
func (t *Trace) add(time int, kind EventKind, msg, arg int32) {
	if time > maxEventTime {
		time = maxEventTime
	}
	if t.n == len(t.buf) {
		t.start++
		if t.start == len(t.buf) {
			t.start = 0
		}
		t.n--
		t.dropped++
	}
	i := t.start + t.n
	if i >= len(t.buf) {
		i -= len(t.buf)
	}
	t.buf[i] = Event{Time: int32(time), Msg: msg, Arg: arg, Kind: kind}
	t.n++
}

// Inject records message injection at time with the given path length.
//
//wormvet:hotpath
func (t *Trace) Inject(time int, msg, pathLen int32) { t.add(time, EvInject, msg, pathLen) }

// Advance records a head advance to frontier.
//
//wormvet:hotpath
func (t *Trace) Advance(time int, msg, frontier int32) { t.add(time, EvAdvance, msg, frontier) }

// Park records a worm parking on edge (pool waits carry the parkFlitBit tag).
//
//wormvet:hotpath
func (t *Trace) Park(time int, msg, edge int32) { t.add(time, EvPark, msg, edge) }

// Wake records a parked worm returning to the active list.
//
//wormvet:hotpath
func (t *Trace) Wake(time int, msg, edge int32) { t.add(time, EvWake, msg, edge) }

// Deliver records message delivery with its latency.
//
//wormvet:hotpath
func (t *Trace) Deliver(time int, msg, latency int32) { t.add(time, EvDeliver, msg, latency) }

// Drop records a message drop at the given frontier.
//
//wormvet:hotpath
func (t *Trace) Drop(time int, msg, frontier int32) { t.add(time, EvDrop, msg, frontier) }

// Credit records a credit release folding on an edge with the resulting
// occupancy.
//
//wormvet:hotpath
func (t *Trace) Credit(time int, edge, occ int32) { t.add(time, EvCredit, edge, occ) }

// Fault records a fault-schedule event (kill/revive, see fault.Kind)
// taking effect on an edge.
//
//wormvet:hotpath
func (t *Trace) Fault(time int, edge, kind int32) { t.add(time, EvFault, edge, kind) }

// Events returns the buffered events oldest-first. Overwritten events are
// not included.
func (t *Trace) Events() []Event {
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		j := t.start + i
		if j >= len(t.buf) {
			j -= len(t.buf)
		}
		out[i] = t.buf[j]
	}
	return out
}

// Dropped returns the number of events overwritten because the ring was
// full.
func (t *Trace) Dropped() int64 { return t.dropped }
