package telemetry

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// populatedMetrics builds a registry with every serialized field
// non-zero, so a round-trip that drops a field cannot pass by luck.
func populatedMetrics() *Metrics {
	m := NewMetrics()
	m.EnsureEdges(5)
	for i := Counter(0); i < NumCounters; i++ {
		m.Add(i, int64(i)*7+3)
	}
	for d := int64(1); d < 1<<20; d <<= 3 {
		m.Jump(d)
	}
	m.StepGauges(4, 9)
	m.StepGauges(2, 1)
	m.Arena(11, 64)
	for e := int32(0); e < 5; e++ {
		m.EdgeStall(CtrStallLaneCredit, e)
		m.StallSpan(CtrStallHeadOfLine, e, int64(e)+2)
		m.EdgeOccupancy(e, int64(e%3), int64(10+e))
	}
	return m
}

func TestMetricsCodecRoundTrip(t *testing.T) {
	m := populatedMetrics()
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The size an embedding format length-prefixes the streamed blob with.
	if m.BinarySize() != len(blob) || NewMetrics().BinarySize() >= len(blob) {
		t.Fatalf("BinarySize %d (empty registry %d), blob is %d bytes", m.BinarySize(), NewMetrics().BinarySize(), len(blob))
	}

	got := NewMetrics()
	// Pre-dirty the destination: Unmarshal must replace, not merge.
	got.Add(0, 999)
	got.EnsureEdges(2)
	got.EdgeStall(CtrStallLaneCredit, 1)
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round-trip diverged:\nwant %+v\ngot  %+v", m, got)
	}
	if !reflect.DeepEqual(m.Snapshot(), got.Snapshot()) {
		t.Error("snapshots diverged after round-trip")
	}
}

func TestMetricsCodecRoundTripNoEdges(t *testing.T) {
	m := NewMetrics()
	m.Inc(CtrParks)
	blob, err := m.MarshalBinary()
	if err != nil || m.BinarySize() != len(blob) {
		t.Fatalf("blob of %d bytes, BinarySize %d, err %v", len(blob), m.BinarySize(), err)
	}
	got := NewMetrics()
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Error("edge-free round-trip diverged")
	}
}

// An older writer knew fewer counter slots; the missing tail must decode
// as zero (the slot list is append-only by contract).
func TestMetricsCodecOlderWriterZeroFills(t *testing.T) {
	m := populatedMetrics()
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the slot count to NumCounters-1 and splice that slot out.
	short := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(short[8:], uint64(NumCounters)-1)
	cut := 16 + 8*(int(NumCounters)-1)
	short = append(short[:cut], short[cut+8:]...)

	got := NewMetrics()
	if err := got.UnmarshalBinary(short); err != nil {
		t.Fatal(err)
	}
	if v := got.ctr[NumCounters-1]; v != 0 {
		t.Errorf("missing slot decoded as %d, want 0", v)
	}
	if got.ctr[0] != m.ctr[0] || got.horizon != m.horizon {
		t.Error("known slots corrupted by the short decode")
	}
}

func TestMetricsCodecRejectsCorruption(t *testing.T) {
	blob, err := populatedMetrics().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), blob...))
	}
	cases := map[string][]byte{
		"empty": {},
		"bad version": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b, 99)
			return b
		}),
		// v2 had two more mid-list slots: decoding it positionally would
		// land its fault counters in the wrong slots.
		"previous version": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b, metricsCodecVersion-1)
			return b
		}),
		"slot count over": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], uint64(NumCounters)+1)
			return b
		}),
		"truncated counters": blob[:20],
		"truncated gauges":   blob[:16+8*int(NumCounters)+8+8*jumpBuckets+8],
		"truncated edges":    blob[:len(blob)-4],
		"trailing bytes":     append(append([]byte(nil), blob...), 0),
		"edge count oversized": mutate(func(b []byte) []byte {
			// The edge-count word sits right after the 8 gauge scalars.
			off := 16 + 8*int(NumCounters) + 8 + 8*jumpBuckets + 8*8
			binary.LittleEndian.PutUint64(b[off:], 1<<40)
			return b
		}),
		"bad jump bucket count": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16+8*int(NumCounters):], jumpBuckets+1)
			return b
		}),
	}
	// Decoding is all or nothing: a rejected blob — several of these fail
	// only after whole sections parsed — leaves a live registry exactly as
	// it was, so the run that falls back from a bad checkpoint reports its
	// own totals.
	live := NewMetrics()
	live.EnsureEdges(2)
	live.Add(CtrSteps, 41)
	live.EdgeStall(CtrStallLaneCredit, 1)
	for name, bad := range cases {
		got := NewMetrics()
		got.EnsureEdges(2)
		got.Add(CtrSteps, 41)
		got.EdgeStall(CtrStallLaneCredit, 1)
		if err := got.UnmarshalBinary(bad); !errors.Is(err, ErrMetricsCodec) {
			t.Errorf("%s: err = %v, want ErrMetricsCodec", name, err)
		}
		if !reflect.DeepEqual(got, live) {
			t.Errorf("%s: a rejected blob modified the registry", name)
		}
	}
}
