package snap

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"wormhole/internal/snap/snaptest"
)

var errTest = errors.New("snaptest: bad stream")

const testMagic = "SNAPTEST"

// record exercises every primitive once, in a miniature of the real
// formats' shape: magic, scalars, length-prefixed payloads, a bitset whose
// length the reader fixes, a fixed-size record decoded from one Window,
// runs longer than the Reader's buffer (so every bulk read refills
// mid-run), a trailer, end of stream.
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
	Pair  packed
	Long  []int32
	Many  []uint64
	Table [bufSize/8 + 3]int64
	Tail  uint64
}

// packed is written as three scalars and read back from one Window.
type packed struct {
	A int32
	B uint8
	C uint64
}

const packedBytes = 4 + 1 + 8

func sample() record {
	long := make([]int32, bufSize/4+77)
	for i := range long {
		long[i] = int32(i*i - 5000)
	}
	many := make([]uint64, bufSize/8+9)
	for i := range many {
		many[i] = uint64(i) << 40
	}
	var table [bufSize/8 + 3]int64
	for i := range table {
		table[i] = int64(-i)
	}
	return record{
		Pair: packed{A: -3, B: 0x7F, C: 1 << 50},
		Long: long, Many: many, Table: table,
		U8: 0xA5, Flag: true, U32: 0xDEADBEEF, U64: 0x0123456789ABCDEF,
		I32: -7, I64: math.MinInt64, F64: math.Float64bits(-0.125),
		Fixed: [3]int32{1, -2, 3}, Wide: [2]int64{-1, 1 << 40},
		I32s: []int32{5, -6, 7, 8}, Keys: []uint64{1 << 63, 2, 3},
		Blob: bytes.Repeat([]byte("blob"), bufSize/4+50),
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
	s.I32(rec.Pair.A)
	s.U8(rec.Pair.B)
	s.U64(rec.Pair.C)
	s.I32s(rec.Long)
	s.U64s(rec.Many)
	s.I64sRaw(rec.Table[:])
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
	if b := s.Window(packedBytes); b != nil {
		rec.Pair = packed{A: int32(le.Uint32(b)), B: b[4], C: le.Uint64(b[5:])}
	}
	rec.Long = s.I32Slice(s.Len(1<<20, "long"))
	rec.Many = s.U64Slice(s.Len(1<<20, "many"))
	s.I64sInto(rec.Table[:])
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

// failingWriter accepts ok Write calls, fails the next, and counts every
// call it sees.
type failingWriter struct {
	ok, calls int
	got       bytes.Buffer
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.calls++; f.calls > f.ok {
		return 0, io.ErrShortWrite
	}
	return f.got.Write(p)
}

// TestWriterReportsFirstWriteError: whichever of the destination's Write
// calls fails — a spill of the owned buffer or an oversize Raw handed
// straight through — Flush reports that error, the destination holds
// exactly the stream's prefix up to it, and it is never written to again.
func TestWriterReportsFirstWriteError(t *testing.T) {
	valid := encoded(t)
	rec := sample()
	var clean failingWriter
	clean.ok = math.MaxInt
	if err := rec.encode(&clean); err != nil || !bytes.Equal(clean.got.Bytes(), valid) {
		t.Fatalf("clean destination: %v", err)
	}
	if clean.calls < 4 {
		t.Fatalf("the sample reached its destination in %d writes; too few to test the seams", clean.calls)
	}
	for k := 0; k < clean.calls; k++ {
		dst := failingWriter{ok: k}
		if err := rec.encode(&dst); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("write %d fails: Flush = %v, want the write error", k+1, err)
		}
		if dst.calls != k+1 {
			t.Fatalf("write %d fails: destination saw %d calls", k+1, dst.calls)
		}
		if !bytes.HasPrefix(valid, dst.got.Bytes()) {
			t.Fatalf("write %d fails: destination holds something other than a prefix of the stream", k+1)
		}
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
	// The same through Rest as a plain io.Reader, which a consumer that is
	// not this package's Reader sees.
	outer = NewReader(bytes.NewReader(append([]byte{7, 0, 0, 0}, valid...)), errTest)
	outer.U32()
	if got, err := io.ReadAll(outer.Rest()); err != nil || !bytes.Equal(got, valid) {
		t.Fatalf("Rest read %d bytes, %v; want the %d behind the header", len(got), err, len(valid))
	}
}

// TestReaderAtEveryRefillBoundary: every way a stream can arrive
// (snaptest.Sources) decodes the same record, and the same stream one
// byte short is the sentinel through each.
func TestReaderAtEveryRefillBoundary(t *testing.T) {
	valid := encoded(t)
	for name, wrap := range snaptest.Sources {
		got, err := decode(wrap(bytes.NewReader(valid)))
		if err != nil || !reflect.DeepEqual(got, sample()) {
			t.Errorf("%s reader: %v", name, err)
		}
		if _, err := decode(wrap(bytes.NewReader(valid[:len(valid)-1]))); !errors.Is(err, errTest) {
			t.Errorf("%s reader, truncated: err = %v, want the sentinel", name, err)
		}
	}
	// A source that stops making progress is an error, not a spin.
	if _, err := decode(io.MultiReader(bytes.NewReader(valid[:100]), stalled{})); !errors.Is(err, errTest) {
		t.Errorf("stalled reader: err = %v, want the sentinel", err)
	}
}

type stalled struct{}

func (stalled) Read([]byte) (int, error) { return 0, nil }

// TestScalarReadsDoNotAllocate: a scalar, a Magic and a Window are views
// of the Reader's buffer.
func TestScalarReadsDoNotAllocate(t *testing.T) {
	valid := encoded(t)
	src := bytes.NewReader(valid)
	s := NewReader(src, errTest)
	if got := testing.AllocsPerRun(100, func() {
		src.Reset(valid)
		s.r, s.w = 0, 0
		if !s.Magic(testMagic) || s.U8() != 0xA5 || !s.Bool() || s.U32() != 0xDEADBEEF || s.Window(8) == nil {
			t.Fatal("misread")
		}
	}); got != 0 {
		t.Fatalf("%v allocations per header read, want 0", got)
	}
}

// TestFrame: the CRC frame WriteFramed streams round-trips, and every
// corruption class a disk or an interrupted write produces — truncation
// anywhere, any single-bit flip of any byte, garbage — is rejected before
// a codec runs.
func TestFrame(t *testing.T) {
	payload := encoded(t)
	sealed := seal(t, payload)
	if got, err := Open(sealed, errTest); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v", err)
	}
	if got, err := Open(seal(t, nil), errTest); err != nil || len(got) != 0 {
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

// seal returns the file WriteFramed writes for payload.
func seal(t *testing.T, payload []byte) []byte {
	t.Helper()
	raw, _ := framed(t, &snaptest.FS{}, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	return raw
}

// framed runs WriteFramed over fsys and returns the file it wrote, and
// the operations it logged if fsys is a snaptest.FS.
func framed(t *testing.T, fsys FS, encode func(io.Writer) error) ([]byte, []snaptest.Op) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "point.snap")
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	var log []snaptest.Op
	if mem, ok := fsys.(*snaptest.FS); ok {
		mem.Hook = func(op snaptest.Op) error { log = append(log, op); return nil }
	}
	size, err := WriteFramed(fsys, path, encode)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := fsys.ReadFile(path)
	if err != nil || int64(len(raw)) != size {
		t.Fatalf("read back %d bytes of %d: %v", len(raw), size, err)
	}
	return raw, log
}

// TestWriteFramedBytes: the file WriteFramed streams is, byte for byte,
// the copying construction it replaced — magic, CRC-32 of the payload,
// payload — however the payload arrives, across the write buffer's
// seams, whatever a pooled buffer held before, and on the OS as in
// memory. The header is one positional write over zeros, the last write
// before the sync; a failed encode or write leaves nothing behind.
func TestWriteFramedBytes(t *testing.T) {
	payload := bytes.Repeat(encoded(t), 2*frameBufSize/len(encoded(t))+2)
	frame := func(payload []byte) []byte {
		want := append([]byte(frameMagic), 0, 0, 0, 0)
		le.PutUint32(want[len(frameMagic):], crc32.ChecksumIEEE(payload))
		return append(want, payload...)
	}
	want := frame(payload)

	for _, piece := range []int{len(payload), 1, 7, bufSize, frameBufSize - 1, frameBufSize, frameBufSize + 1} {
		got, log := framed(t, &snaptest.FS{}, func(w io.Writer) error {
			for rest := payload; len(rest) > 0; {
				n := min(piece, len(rest))
				if m, err := w.Write(rest[:n]); m != n || err != nil {
					return fmt.Errorf("Write = %d, %v", m, err)
				}
				rest = rest[n:]
			}
			return nil
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("payload written %d bytes at a time: file differs from magic+CRC+payload", piece)
		}
		var kinds []string
		for _, op := range log {
			if k := len(kinds); k == 0 || kinds[k-1] != op.Kind {
				kinds = append(kinds, op.Kind)
			}
		}
		if want := []string{snaptest.OpCreate, snaptest.OpWrite, snaptest.OpWriteAt, snaptest.OpSync, snaptest.OpRename, snaptest.OpSyncDir}; !slices.Equal(kinds, want) {
			t.Fatalf("payload written %d bytes at a time: logged %v, want %v (runs collapsed)", piece, kinds, want)
		}
		if hdr := log[len(log)-4]; hdr.Off != 0 || !bytes.Equal(hdr.Data, want[:frameHeader]) || !bytes.Equal(log[1].Data[:frameHeader], make([]byte, frameHeader)) {
			t.Fatalf("header: %v over %x, want %x at 0 over zeros", hdr, log[1].Data[:frameHeader], want[:frameHeader])
		}
		// However the payload arrives, it leaves in writes of the whole
		// buffer.
		if writes := len(log) - 5; writes != (len(want)+frameBufSize-1)/frameBufSize {
			t.Fatalf("payload written %d bytes at a time: %d writes for %d bytes", piece, writes, len(want))
		}
	}
	// Through the codec, as the daemon uses it, and on the real disk.
	rec := sample()
	short := frame(encoded(t))
	if got, _ := framed(t, &snaptest.FS{}, rec.encode); !bytes.Equal(got, short) {
		t.Fatal("encoded into the frame: file differs from magic+CRC+payload")
	}
	if got, _ := framed(t, OS, rec.encode); !bytes.Equal(got, short) {
		t.Fatal("encoded into a file on the OS: it differs from magic+CRC+payload")
	}
	// A shorter payload after a longer one carries nothing over.
	if got, err := Open(seal(t, []byte("short")), errTest); err != nil || string(got) != "short" {
		t.Fatalf("reused buffer: %q, %v", got, err)
	}

	// An encode that fails, and a file that fails its write, leave no file.
	full := errors.New("disk full")
	for name, fsys := range map[string]*snaptest.FS{
		"encode fails": {},
		"write fails": {Hook: func(op snaptest.Op) error {
			if op.Kind == snaptest.OpWriteAt {
				return full
			}
			return nil
		}},
	} {
		if err := fsys.MkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		_, err := WriteFramed(fsys, "d/point.snap", func(w io.Writer) error {
			w.Write(payload) //nolint:errcheck // the write under test is the header's
			if name == "encode fails" {
				return full
			}
			return nil
		})
		if left, _ := fsys.ReadDir("d"); !errors.Is(err, full) || len(left) != 0 {
			t.Fatalf("%s: err = %v, left %v", name, err, left)
		}
	}
}

// TestWriteFramedConcurrent: framed writes running at once each get a
// buffer of their own from the pool, and each file holds its own payload.
func TestWriteFramedConcurrent(t *testing.T) {
	fsys := &snaptest.FS{}
	if err := fsys.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i)}, frameBufSize+i)
			if _, err := WriteFramed(fsys, fmt.Sprintf("d/%d", i), func(w io.Writer) error {
				_, err := w.Write(payload)
				return err
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range 8 {
		raw, err := fsys.ReadFile(fmt.Sprintf("d/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Open(raw, errTest); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, frameBufSize+i)) {
			t.Fatalf("file %d: %d bytes, %v", i, len(got), err)
		}
	}
}

func TestWriteFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	for _, blob := range [][]byte{[]byte("first"), []byte("second, longer"), {}} {
		if err := WriteFile(OS, path, blob); err != nil {
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
	if err := WriteFile(OS, filepath.Join(dir, "taken"), []byte("blob")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if err := WriteFile(OS, filepath.Join(dir, "missing", "state.bin"), nil); err == nil {
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

// TestRemoveTemps: what a WriteFile killed before its rename leaves
// behind is swept; finished files, directories and names that only look
// similar are not.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	orphan, err := os.CreateTemp(dir, "point-000.snap"+tmpMark+"*")
	if err != nil {
		t.Fatal(err)
	}
	orphan.Close()
	keep := []string{"point-000.snap", "job.json", "notes.tmpl", "x.tmp", "x.tmp12a"}
	for _, name := range keep {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "ckpt.tmp123"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := RemoveTemps(OS, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	slices.Sort(keep)
	if want := append([]string{"ckpt.tmp123"}, keep...); !slices.Equal(left, want) {
		t.Fatalf("after the sweep: %v, want %v", left, want)
	}
	if err := RemoveTemps(OS, filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("missing directory: %v", err)
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
	// The Window-decoded record, and the counts and bodies of the runs
	// longer than the Reader's buffer.
	const pairAt = blobAt + 4 + 4*(bufSize/4+50) + 2
	const longAt = pairAt + packedBytes
	const manyAt = longAt + 4 + 4*(bufSize/4+77)
	f.Add(uint8(2), uint32(pairAt+4), uint8(0xFF))        // inside the window
	f.Add(uint8(1), uint32(pairAt+6), uint8(0))           // truncate inside it
	f.Add(uint8(2), uint32(longAt), uint8(0x01))          // long run one short
	f.Add(uint8(2), uint32(longAt+2), uint8(0x01))        // long run 64 k over
	f.Add(uint8(1), uint32(longAt+4+bufSize), uint8(0))   // truncate at a chunk seam
	f.Add(uint8(2), uint32(manyAt+1), uint8(0x40))        // key run far over
	f.Add(uint8(3), uint32(manyAt+4+bufSize), uint8(200)) // inflate mid-run
	f.Add(uint8(1), uint32(len(valid)-9), uint8(0))       // truncate inside the fixed table

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
