package snap

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"wormhole/internal/snap/snaptest"
)

var errTest = errors.New("snaptest: bad stream")

const testMagic = "SNAPTEST"

// record exercises every primitive once, in a miniature of the real
// formats' shape: magic, scalars, length-prefixed payloads, a bitset whose
// length the reader fixes, a trailer, end of stream.
type record struct {
	U8    uint8
	Flag  bool
	U32   uint32
	U64   uint64
	I32   int32
	I64   int64
	F64   uint64 // float bits, so NaN payloads compare
	Fixed [3]int32
	Wide  [2]int64
	I32s  []int32
	Keys  []uint64
	Blob  []byte
	Bits  [11]bool
	Tail  uint64
}

func sample() record {
	return record{
		U8: 0xA5, Flag: true, U32: 0xDEADBEEF, U64: 0x0123456789ABCDEF,
		I32: -7, I64: math.MinInt64, F64: math.Float64bits(-0.125),
		Fixed: [3]int32{1, -2, 3}, Wide: [2]int64{-1, 1 << 40},
		I32s: []int32{5, -6, 7, 8}, Keys: []uint64{1 << 63, 2, 3},
		Blob: bytes.Repeat([]byte("blob"), 50),
		Bits: [11]bool{true, false, true, true, false, false, false, true, false, true, true},
		Tail: 0x534E4150454E4453,
	}
}

func (rec *record) encode(w io.Writer) error {
	s := NewWriter(w)
	s.Raw([]byte(testMagic))
	s.U8(rec.U8)
	s.Bool(rec.Flag)
	s.U32(rec.U32)
	s.U64(rec.U64)
	s.I32(rec.I32)
	s.I64(rec.I64)
	s.F64(math.Float64frombits(rec.F64))
	for _, v := range rec.Fixed {
		s.I32(v)
	}
	for _, v := range rec.Wide {
		s.I64(v)
	}
	s.I32s(rec.I32s)
	s.U64s(rec.Keys)
	s.U32(uint32(len(rec.Blob)))
	s.Raw(rec.Blob)
	s.Bits(rec.Bits[:])
	s.U64(rec.Tail)
	return s.Flush()
}

func decode(rd io.Reader) (record, error) {
	var rec record
	s := NewReader(rd, errTest)
	if !s.Magic(testMagic) {
		s.Fail("bad magic")
	}
	rec.U8 = s.U8()
	rec.Flag = s.Bool()
	rec.U32 = s.U32()
	rec.U64 = s.U64()
	rec.I32 = s.I32()
	rec.I64 = s.I64()
	rec.F64 = math.Float64bits(s.F64())
	s.I32sInto(rec.Fixed[:])
	s.I64sInto(rec.Wide[:])
	rec.I32s = s.I32Slice(s.Len(1<<20, "i32"))
	rec.Keys = s.U64Slice(s.Len(1<<20, "key"))
	rec.Blob = s.Blob(s.Len(1<<30, "blob"))
	s.BitsInto(rec.Bits[:])
	rec.Tail = s.U64()
	s.End()
	return rec, s.Err()
}

func encoded(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := sample()
	if err := rec.encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripEveryPrimitive(t *testing.T) {
	got, err := decode(bytes.NewReader(encoded(t)))
	if err != nil {
		t.Fatal(err)
	}
	if want := sample(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged\nwant %+v\n got %+v", want, got)
	}
}

// TestWireLayout pins the byte order and the bitset packing: the formats
// built on this package promise little-endian fixed width on disk.
func TestWireLayout(t *testing.T) {
	var buf bytes.Buffer
	s := NewWriter(&buf)
	s.U32(0x04030201)
	s.I64(-2)
	s.Bool(true)
	s.Bits([]bool{true, false, false, true, false, false, false, false, true})
	s.I32s([]int32{-1})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		1, 2, 3, 4,
		0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		1,
		0x09, 0x01,
		1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF,
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("wire bytes % x, want % x", buf.Bytes(), want)
	}
}

// TestTruncationAtEveryOffset: a stream cut anywhere is a typed error,
// never a panic and never a silently short record.
func TestTruncationAtEveryOffset(t *testing.T) {
	valid := encoded(t)
	for cut := 0; cut < len(valid); cut++ {
		if _, err := decode(bytes.NewReader(valid[:cut])); !errors.Is(err, errTest) {
			t.Fatalf("cut at %d/%d: err = %v, want the sentinel", cut, len(valid), err)
		}
	}
	if _, err := decode(bytes.NewReader(append(valid[:len(valid):len(valid)], 0))); !errors.Is(err, errTest) {
		t.Fatalf("trailing byte: err = %v, want the sentinel", err)
	}
}

// TestOversizeLengthDoesNotAllocate: a count over its bound fails before
// anything is sized by it, and a count inside its bound that the stream
// cannot back fails at the stream's real end — neither drives a
// count-sized allocation.
func TestOversizeLengthDoesNotAllocate(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	stream := func(count uint32, payload int) []byte {
		var buf bytes.Buffer
		s := NewWriter(&buf)
		s.U32(count)
		s.Raw(make([]byte, payload))
		s.Flush() //nolint:errcheck
		return buf.Bytes()
	}
	for name, read := range map[string]func(s *Reader){
		"over bound":  func(s *Reader) { s.U64Slice(s.Len(1<<20, "key")) },
		"short keys":  func(s *Reader) { s.U64Slice(s.Len(math.MaxInt32, "key")) },
		"short i32s":  func(s *Reader) { s.I32Slice(s.Len(math.MaxInt32, "i32")) },
		"short blob":  func(s *Reader) { s.Blob(s.Len(1<<30, "blob")) },
		"loop bounds": func(s *Reader) { _ = s.Len(16, "event") },
	} {
		count := uint32(1 << 30)
		if name == "loop bounds" {
			count = 17
		}
		raw := stream(count, 64)
		var err error
		got := allocated(func() {
			s := NewReader(bytes.NewReader(raw), errTest)
			read(s)
			err = s.Err()
		})
		if !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the sentinel", name, err)
		}
		if got > 1<<20 {
			t.Errorf("%s: a corrupt count drove %d bytes of allocation", name, got)
		}
	}
}

// TestFirstFailureSticks: after a failure every read returns zero and
// the first error is the one reported.
func TestFirstFailureSticks(t *testing.T) {
	s := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), errTest)
	s.Fail("first %d", 1)
	s.Fail("second")
	if s.U64() != 0 || s.U8() != 0 || s.Bool() || s.Magic("x") {
		t.Fatal("reads after a failure returned data")
	}
	if err := s.Err(); !errors.Is(err, errTest) || err.Error() != errTest.Error()+": first 1" {
		t.Fatalf("err = %v", err)
	}
}

type failingWriter struct{ left int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.left -= len(p); f.left < 0 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

func TestWriterReportsFirstWriteError(t *testing.T) {
	s := NewWriter(&failingWriter{left: 8192})
	for i := 0; i < 4096; i++ {
		s.U64(uint64(i))
	}
	if err := s.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Flush = %v, want the write error", err)
	}
}

// TestRestHandsOverTheBuffer: a stream embedding another format's stream
// loses no bytes to buffering at the seam.
func TestRestHandsOverTheBuffer(t *testing.T) {
	valid := encoded(t)
	outer := NewReader(bytes.NewReader(append([]byte{7, 0, 0, 0}, valid...)), errTest)
	if outer.U32() != 7 {
		t.Fatal("outer header")
	}
	if got, err := decode(outer.Rest()); err != nil || !reflect.DeepEqual(got, sample()) {
		t.Fatalf("embedded stream: %v", err)
	}
}

// TestFrame: the CRC frame round-trips, and every corruption class a
// disk or the daemon's chaos plane produces — truncation anywhere, any
// single-bit flip of any byte, garbage — is rejected before a codec runs.
func TestFrame(t *testing.T) {
	payload := encoded(t)
	sealed := Seal(payload)
	if got, err := Open(sealed, errTest); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v", err)
	}
	if got, err := Open(Seal(nil), errTest); err != nil || len(got) != 0 {
		t.Fatalf("empty payload: %v", err)
	}
	for cut := 0; cut < len(sealed); cut++ {
		if _, err := Open(sealed[:cut], errTest); !errors.Is(err, errTest) {
			t.Fatalf("truncation at %d: err = %v", cut, err)
		}
	}
	mut := append([]byte(nil), sealed...)
	for pos := range mut {
		for bit := 0; bit < 8; bit++ {
			mut[pos] ^= 1 << bit
			if _, err := Open(mut, errTest); !errors.Is(err, errTest) {
				t.Fatalf("flip of bit %d at %d: err = %v", bit, pos, err)
			}
			mut[pos] ^= 1 << bit
		}
	}
	if _, err := Open([]byte("not a checkpoint at all"), errTest); !errors.Is(err, errTest) {
		t.Fatalf("garbage: err = %v", err)
	}
}

func TestWriteFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	for _, blob := range [][]byte{[]byte("first"), []byte("second, longer"), {}} {
		if err := WriteFile(path, blob); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("read back %q, %v", got, err)
		}
	}
	// A rename that cannot succeed reports the error, leaves the target
	// alone and cleans its temp file up.
	if err := os.Mkdir(filepath.Join(dir, "taken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "taken", "x"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "taken"), []byte("blob")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if err := WriteFile(filepath.Join(dir, "missing", "state.bin"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("leftovers in %s: %v", dir, entries)
	}
}

// FuzzReader attacks the record stream with the shared mutation engine.
// A mutation either fails with the sentinel, or landed in a value and
// decodes to a record that re-encodes and decodes to itself.
func FuzzReader(f *testing.F) {
	valid := encoded(f)
	// Offsets of the three length prefixes in the sample's encoding.
	const i32sAt, keysAt, blobAt = len(testMagic) + 62, len(testMagic) + 82, len(testMagic) + 110
	f.Add(uint8(0), uint32(0), uint8(0))             // untouched
	f.Add(uint8(1), uint32(0), uint8(0))             // empty
	f.Add(uint8(1), uint32(len(valid)/2), uint8(0))  // truncate
	f.Add(uint8(2), uint32(3), uint8(0x10))          // magic
	f.Add(uint8(2), uint32(i32sAt), uint8(0x02))     // count a little off
	f.Add(uint8(2), uint32(keysAt+3), uint8(0x7F))   // count near 2^31
	f.Add(uint8(2), uint32(blobAt+3), uint8(0x3F))   // blob length near 2^30
	f.Add(uint8(2), uint32(len(valid)-1), uint8(0))  // trailer
	f.Add(uint8(3), uint32(len(valid)/2), uint8(17)) // inflate
	f.Add(uint8(3), uint32(len(valid)), uint8(255))  // append garbage

	f.Fuzz(func(t *testing.T, mode uint8, pos uint32, val uint8) {
		rec, err := decode(bytes.NewReader(snaptest.Mutate(valid, mode, pos, val)))
		if err != nil {
			if !errors.Is(err, errTest) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := rec.encode(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := decode(&buf)
		if err != nil || !reflect.DeepEqual(rec, again) {
			t.Fatalf("decoded record does not survive its own round trip: %v\n1st %+v\n2nd %+v", err, rec, again)
		}
	})
}
