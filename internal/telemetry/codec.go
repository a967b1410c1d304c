package telemetry

// Binary serialization of the Metrics registry, used by the simulator's
// checkpoint codec (vcsim.Sim.Snapshot) so a restored run resumes its
// flight-recorder totals instead of restarting them from zero.
//
// The format is versioned and self-describing enough to survive counter
// slots being appended (the slot list is append-only by contract): the
// encoded slot count is stored, a newer reader zero-fills slots the
// writer did not know about, and an older reader rejects the blob
// rather than misattribute counters. Slots are positional, so removing
// one mid-list is an incompatible change and bumps the version.

import (
	"bytes"
	"errors"

	"wormhole/internal/snap"
)

// metricsCodecVersion is bumped whenever the encoding below changes
// incompatibly. Appending counter slots does NOT bump it: the slot
// count is encoded explicitly. v2 added the per-edge fault-time
// accumulator as a fifth edge array; v3 removed two mid-list slots
// (the deleted parallel stepper's step tallies), which shifts every
// fault counter — a v2 blob is rejected, not silently misattributed.
const metricsCodecVersion = 3

// ErrMetricsCodec is wrapped by every decode failure in
// (*Metrics).UnmarshalBinary.
var ErrMetricsCodec = errors.New("telemetry: bad metrics encoding")

// gauges lists the scalar gauges in wire order, for the writer and the
// reader alike.
func (m *Metrics) gauges() []*int64 {
	return []*int64{
		&m.gaugeSteps, &m.dirtySum, &m.dirtyMax, &m.parkedSum,
		&m.parkedMax, &m.arenaChunks, &m.arenaCapacity, &m.horizon,
	}
}

// The per-edge accumulators go on the wire as edgeArrays arrays of one
// int64 per edge: edgeStall, then one array per occFields entry, then
// edgeFault. The edgeOcc records are written field by field, so the
// bytes are those of three parallel arrays.
const edgeArrays = 2 + len(occFields)

var occFields = [...]func(*edgeOcc) *int64{
	func(o *edgeOcc) *int64 { return &o.occInt },
	func(o *edgeOcc) *int64 { return &o.lastOcc },
	func(o *edgeOcc) *int64 { return &o.lastT },
}

// MarshalBinary encodes the full registry state — counters, histogram,
// gauges and per-edge accumulators — as a little-endian binary blob.
// It never fails; the error return satisfies encoding.BinaryMarshaler.
func (m *Metrics) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(m.BinarySize())
	w := snap.NewWriter(&buf)
	m.WriteBinary(w)
	w.Flush() //nolint:errcheck // a bytes.Buffer write cannot fail
	return buf.Bytes(), nil
}

// BinarySize is the exact length of the blob WriteBinary writes, so a
// format that embeds the registry can length-prefix it and stream it
// without marshalling it first.
func (m *Metrics) BinarySize() int {
	return 8 * (4 + int(NumCounters) + jumpBuckets + len(m.gauges()) + edgeArrays*len(m.edgeStall))
}

// WriteBinary writes MarshalBinary's blob to w.
func (m *Metrics) WriteBinary(w *snap.Writer) {
	w.U64(metricsCodecVersion)
	w.U64(uint64(NumCounters))
	w.I64sRaw(m.ctr[:])
	w.U64(jumpBuckets)
	w.I64sRaw(m.jump[:])
	for _, p := range m.gauges() {
		w.I64(*p)
	}
	w.U64(uint64(len(m.edgeStall)))
	w.I64sRaw(m.edgeStall)
	for _, field := range occFields {
		for e := range m.occ {
			w.I64(*field(&m.occ[e]))
		}
	}
	w.I64sRaw(m.edgeFault)
}

// UnmarshalBinary replaces m's state with the blob's, all or nothing: a
// rejected blob leaves m exactly as it was. Counter slots the writer did
// not know about (a blob from an older binary) are zeroed; slots this
// binary does not know about make the decode fail.
func (m *Metrics) UnmarshalBinary(data []byte) error {
	r := snap.NewReader(bytes.NewReader(data), ErrMetricsCodec)
	var got Metrics
	if ver := r.U64(); ver != metricsCodecVersion {
		r.Fail("unsupported version %d", ver)
	}
	nc := r.U64()
	if nc > uint64(NumCounters) {
		r.Fail("counter slot count %d", nc)
		nc = 0
	}
	r.I64sInto(got.ctr[:nc])
	if nj := r.U64(); nj != jumpBuckets {
		r.Fail("jump bucket count %d", nj)
	}
	r.I64sInto(got.jump[:])
	for _, p := range got.gauges() {
		*p = r.I64()
	}
	ne := r.U64()
	if ne > uint64(len(data)/8) {
		r.Fail("edge count %d", ne)
		ne = 0
	}
	got.EnsureEdges(int(ne))
	r.I64sInto(got.edgeStall)
	for _, field := range occFields {
		for e := range got.occ {
			*field(&got.occ[e]) = r.I64()
		}
	}
	r.I64sInto(got.edgeFault)
	r.End()
	if r.Err() != nil {
		return r.Err()
	}
	*m = got
	return nil
}
