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
	"encoding/binary"
	"errors"
	"fmt"
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

// MarshalBinary encodes the full registry state — counters, histogram,
// gauges and per-edge accumulators — as a little-endian binary blob.
// It never fails; the error return satisfies encoding.BinaryMarshaler.
func (m *Metrics) MarshalBinary() ([]byte, error) {
	n := len(m.edgeStall)
	buf := make([]byte, 0, 8+8*(int(NumCounters)+jumpBuckets+8)+40*n)
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	i64 := func(v int64) { u64(uint64(v)) }

	u64(uint64(metricsCodecVersion))
	u64(uint64(NumCounters))
	for i := Counter(0); i < NumCounters; i++ {
		i64(m.ctr[i])
	}
	u64(uint64(jumpBuckets))
	for _, v := range m.jump {
		i64(v)
	}
	i64(m.gaugeSteps)
	i64(m.dirtySum)
	i64(m.dirtyMax)
	i64(m.parkedSum)
	i64(m.parkedMax)
	i64(m.arenaChunks)
	i64(m.arenaCapacity)
	i64(m.horizon)
	u64(uint64(n))
	for _, s := range [][]int64{m.edgeStall, m.occInt, m.lastOcc, m.lastT, m.edgeFault} {
		for _, v := range s {
			i64(v)
		}
	}
	return buf, nil
}

// UnmarshalBinary replaces m's state with the blob's. Counter slots the
// writer did not know about (a blob from an older binary) are zeroed;
// slots this binary does not know about make the decode fail.
func (m *Metrics) UnmarshalBinary(data []byte) error {
	pos := 0
	fail := func(what string) error {
		return fmt.Errorf("%w: %s at offset %d", ErrMetricsCodec, what, pos)
	}
	u64 := func() (uint64, bool) {
		if pos+8 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		return v, true
	}
	i64s := func(dst []int64) bool {
		for i := range dst {
			v, ok := u64()
			if !ok {
				return false
			}
			dst[i] = int64(v)
		}
		return true
	}

	ver, ok := u64()
	if !ok || ver != metricsCodecVersion {
		return fail("unsupported version")
	}
	nc, ok := u64()
	if !ok || nc > uint64(NumCounters) {
		return fail("counter slot count")
	}
	m.ctr = [NumCounters]int64{}
	if !i64s(m.ctr[:nc]) {
		return fail("counters")
	}
	nj, ok := u64()
	if !ok || nj != jumpBuckets {
		return fail("jump bucket count")
	}
	if !i64s(m.jump[:]) {
		return fail("jump histogram")
	}
	scalars := []*int64{
		&m.gaugeSteps, &m.dirtySum, &m.dirtyMax, &m.parkedSum,
		&m.parkedMax, &m.arenaChunks, &m.arenaCapacity, &m.horizon,
	}
	for _, p := range scalars {
		v, ok := u64()
		if !ok {
			return fail("gauges")
		}
		*p = int64(v)
	}
	ne, ok := u64()
	if !ok || ne > uint64(len(data)/8) {
		return fail("edge count")
	}
	m.edgeStall, m.occInt, m.lastOcc, m.lastT, m.edgeFault = nil, nil, nil, nil, nil
	m.EnsureEdges(int(ne))
	for _, s := range [][]int64{m.edgeStall, m.occInt, m.lastOcc, m.lastT, m.edgeFault} {
		if !i64s(s) {
			return fail("edge accumulators")
		}
	}
	if pos != len(data) {
		return fail("trailing bytes")
	}
	return nil
}
