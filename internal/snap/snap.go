// Package snap is the checkpoint codec kernel: the one place that knows
// how a checkpoint stream is written and safely read back. Every binary
// state format in the repository — WORMSNAP (vcsim), WRUNSNAP (traffic),
// the telemetry metrics blob, and the daemon's WHCKPT01 file frame — is
// a field list written through Writer and read through Reader; the
// formats own their fields and validators, this package owns the rules
// they share:
//
//   - fixed-width little-endian values;
//   - one sticky error, so call sites stay unconditional, and every read
//     failure wraps the sentinel the format supplied (errors.Is against
//     vcsim.ErrSnapshotCorrupt, traffic.ErrRunnerSnapshot,
//     telemetry.ErrMetricsCodec keeps holding);
//   - length prefixes are bounded before use, and variable-length
//     payloads grow as bytes actually arrive — a corrupt count hits EOF
//     after the stream's real length instead of driving a count-sized
//     allocation;
//   - the CRC-32 integrity frame, streamed to the file behind a header
//     filled in last, and the atomic temp+rename file write (file.go).
//
// Both directions move records, not fields. A Writer owns a bufSize
// buffer: every scalar is an inlined append with one out-of-line spill
// when the buffer is full, and the slice writers fill it in bulk. A
// Reader owns a buffer of the same size and has one primitive, Window —
// "the next n bytes, bounds-checked once" — which every scalar read is a
// decode of, which a format may take directly to decode a fixed-size
// record at constant offsets (vcsim's 71-byte worm record), and which the
// slice readers walk a chunk at a time. Neither end allocates per value.
// On the 2-vCPU reference VM a knee-run WRUNSNAP of 6 MB (75 k worm
// records) encodes at ≈ 2.6 GB/s and restores at ≈ 1.4 GB/s —
// `go test -run '^$' -bench 'Snapshot|Restore' -cpu 1 ./internal/traffic`
// prints the figures — and the benchmark's 25 MB ones, which fit no
// cache, at ≈ 1.5 and ≈ 1.3 GB/s.
//
// Stdlib only, no simulator imports.
package snap

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// bufSize is the size of a Writer's and a Reader's buffer: what bufio
// used, so a small blob (a telemetry registry, a test record) costs what
// it always did, and small enough to stay in L1 while a 25 MB stream
// passes through it.
const bufSize = 4096

var le = binary.LittleEndian

// Writer serializes fixed-width little-endian values into a buffer it
// owns and spills to the destination when full. The first write error
// sticks and nothing reaches the destination after it, so call sites
// stay unconditional and Flush reports the failure.
type Writer struct {
	buf []byte // bufSize long; buf[:n] is pending
	n   int    // an index, not a reslice: a put stores no pointer
	w   io.Writer
	err error
}

func NewWriter(w io.Writer) *Writer {
	return &Writer{buf: make([]byte, bufSize), w: w}
}

// Flush writes out anything buffered and returns the first error any
// write hit.
func (s *Writer) Flush() error {
	s.spill()
	return s.err
}

// spill empties the buffer into the destination (or drops it after a
// failure); every put calls it when its value would not fit.
func (s *Writer) spill() {
	if s.err == nil && s.n > 0 {
		_, s.err = s.w.Write(s.buf[:s.n])
	}
	s.n = 0
}

// Raw writes b with no length prefix (magics, embedded blobs whose
// length was written separately).
func (s *Writer) Raw(b []byte) {
	if len(b) > len(s.buf)-s.n {
		s.spill()
		if len(b) >= len(s.buf) {
			if s.err == nil {
				_, s.err = s.w.Write(b)
			}
			return
		}
	}
	s.n += copy(s.buf[s.n:], b)
}

// Uint writes the low n bytes of v, n ≤ 8.
func (s *Writer) Uint(n int, v uint64) {
	if s.n > bufSize-8 {
		s.spill()
	}
	le.PutUint64(s.buf[s.n:], v)
	s.n += n
}

// The scalar puts are sized to inline at their call sites (U8, U32, U64
// and the I32/I64 spellings sit exactly on the compiler's budget — the
// spill check is a compare against a constant for that reason; F64 and
// Bool are one call deeper), so a field costs a compare, a store and an
// add.
func (s *Writer) U8(v uint8) {
	if s.n == bufSize {
		s.spill()
	}
	s.buf[s.n] = v
	s.n++
}

func (s *Writer) U32(v uint32) {
	if s.n > bufSize-4 {
		s.spill()
	}
	le.PutUint32(s.buf[s.n:], v)
	s.n += 4
}

func (s *Writer) U64(v uint64) {
	if s.n > bufSize-8 {
		s.spill()
	}
	le.PutUint64(s.buf[s.n:], v)
	s.n += 8
}

func (s *Writer) I32(v int32)   { s.U32(uint32(v)) }
func (s *Writer) I64(v int64)   { s.U64(uint64(v)) }
func (s *Writer) F64(v float64) { s.U64(math.Float64bits(v)) }

func (s *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	s.U8(b)
}

// room returns the buffer's free tail, spilling first when it cannot
// hold one width-byte element; the slice writers fill it whole elements
// at a time and advance n by what they used.
func (s *Writer) room(width int) []byte {
	if s.n > bufSize-width {
		s.spill()
	}
	return s.buf[s.n:]
}

// I32s and U64s write a u32 element count, then the elements in bulk.
func (s *Writer) I32s(v []int32) {
	s.U32(uint32(len(v)))
	for len(v) > 0 {
		b := s.room(4)
		n := min(len(v), len(b)/4)
		for i, x := range v[:n] {
			le.PutUint32(b[4*i:], uint32(x))
		}
		s.n += 4 * n
		v = v[n:]
	}
}

func (s *Writer) U64s(v []uint64) {
	s.U32(uint32(len(v)))
	for len(v) > 0 {
		b := s.room(8)
		n := min(len(v), len(b)/8)
		for i, x := range v[:n] {
			le.PutUint64(b[8*i:], x)
		}
		s.n += 8 * n
		v = v[n:]
	}
}

// I64sRaw writes the elements in bulk with no count prefix: the twin of
// Reader.I64sInto, for arrays whose length the reader fixes.
func (s *Writer) I64sRaw(v []int64) {
	for len(v) > 0 {
		b := s.room(8)
		n := min(len(v), len(b)/8)
		for i, x := range v[:n] {
			le.PutUint64(b[8*i:], uint64(x))
		}
		s.n += 8 * n
		v = v[n:]
	}
}

// Bits packs a []bool as a bitset, low bit first (the reader supplies
// the length).
func (s *Writer) Bits(v []bool) {
	var acc uint8
	for i, b := range v {
		if b {
			acc |= 1 << (i & 7)
		}
		if i&7 == 7 {
			s.U8(acc)
			acc = 0
		}
	}
	if len(v)&7 != 0 {
		s.U8(acc)
	}
}

// Reader mirrors Writer. The first failure — I/O or a validation the
// caller reports through Fail — sticks, wrapped in the format's
// sentinel; every later read returns zero, so a decode runs to its end
// unconditionally and checks Err once per section.
type Reader struct {
	src  io.Reader
	buf  []byte // buf[r:w] is read from src and not yet consumed
	r, w int    // indices, not a reslice: a read stores no pointer
	bad  error  // sentinel every failure wraps
	err  error
}

// NewReader reads from r; every failure wraps bad. Another Reader's Rest
// is continued in that Reader's buffer, so a stream that embeds another
// format's stream hands it to that format's restore without losing bytes
// and without a second layer of buffering.
func NewReader(r io.Reader, bad error) *Reader {
	if t, ok := r.(*rest); ok {
		return &Reader{src: t.src, buf: t.buf, r: t.r, w: t.w, bad: bad}
	}
	return &Reader{src: r, buf: make([]byte, bufSize), bad: bad}
}

// Err returns the first failure, or nil.
func (s *Reader) Err() error { return s.err }

// Rest returns the unread remainder of the stream, buffered bytes
// included. The Reader must not be used afterwards.
func (s *Reader) Rest() io.Reader { return (*rest)(s) }

// rest is a finished Reader's remainder as a plain io.Reader.
type rest Reader

func (t *rest) Read(p []byte) (int, error) {
	if t.r == t.w {
		return t.src.Read(p)
	}
	n := copy(p, t.buf[t.r:t.w])
	t.r += n
	return n, nil
}

// Fail records a validation failure (first one wins).
func (s *Reader) Fail(format string, args ...any) {
	if s.err == nil {
		s.fail(fmt.Errorf("%w: %s", s.bad, fmt.Sprintf(format, args...)))
	}
}

// fail makes err sticky and empties the buffer, so the one comparison
// every Window starts with also refuses reads after a failure.
func (s *Reader) fail(err error) {
	s.err = err
	s.r, s.w = 0, 0
}

// Window returns the next n bytes of the stream, n ≤ bufSize, or nil
// after any failure (a short stream included). The slice aliases the
// Reader's buffer and is valid until the next read. Every other read is
// spelled in it; a format decodes a fixed-size record from one Window
// at constant offsets instead of a read per field.
func (s *Reader) Window(n int) []byte {
	if s.w-s.r < n && !s.refill(n) {
		return nil
	}
	b := s.buf[s.r : s.r+n : s.r+n]
	s.r += n
	return b
}

// refill is Window's slow path: false after any failure, a stream that
// ends before n bytes included.
func (s *Reader) refill(n int) bool {
	if s.err != nil {
		return false
	}
	if n > len(s.buf) {
		panic("snap: window larger than the buffer")
	}
	if err := s.fetch(n); err != nil {
		if err == io.EOF && s.w > 0 {
			err = io.ErrUnexpectedEOF
		}
		s.fail(fmt.Errorf("%w: %v", s.bad, err))
		return false
	}
	return true
}

// fetch moves the unread bytes to the front of the buffer and reads
// until n are buffered, returning the read error that stopped it short.
// An error that arrives with enough data is dropped here and resurfaces
// on the source's next Read.
func (s *Reader) fetch(n int) error {
	s.w = copy(s.buf, s.buf[s.r:s.w])
	s.r = 0
	for idle := 0; s.w < n; {
		m, err := s.src.Read(s.buf[s.w:])
		s.w += m
		switch {
		case s.w >= n:
			return nil
		case err != nil:
			return err
		case m == 0:
			if idle++; idle == 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// Magic consumes len(m) bytes and reports whether they are m.
func (s *Reader) Magic(m string) bool {
	b := s.Window(len(m))
	return b != nil && string(b) == m
}

// Uint reads an n-byte unsigned value, n ≤ 8.
func (s *Reader) Uint(n int) uint64 {
	var v [8]byte
	copy(v[:], s.Window(n))
	return le.Uint64(v[:])
}

func (s *Reader) U8() uint8 {
	if b := s.Window(1); b != nil {
		return b[0]
	}
	return 0
}

func (s *Reader) U32() uint32 {
	if b := s.Window(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (s *Reader) U64() uint64 {
	if b := s.Window(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (s *Reader) Bool() bool   { return s.U8() != 0 }
func (s *Reader) I32() int32   { return int32(s.U32()) }
func (s *Reader) I64() int64   { return int64(s.U64()) }
func (s *Reader) F64() float64 { return math.Float64frombits(s.U64()) }

// Len reads a u32 element count and bounds it: a corrupt count must not
// drive a giant allocation (or loop) before validation catches it.
func (s *Reader) Len(max int, what string) int {
	n := s.U32()
	if int64(n) > int64(max) {
		s.Fail("%s count %d exceeds bound %d", what, n, max)
		return 0
	}
	return int(n)
}

// chunk returns a Window over the next whole width-byte elements of a
// run with n left, or nil once the Reader has failed. A run that fits the
// buffer comes back whole; a longer one drains what is buffered, then
// arrives a buffer at a time.
func (s *Reader) chunk(n, width int) []byte {
	k := len(s.buf) / width
	if have := (s.w - s.r) / width; n > k && have > 0 {
		k = have
	}
	return s.Window(min(n, k) * width)
}

// I32sInto and I64sInto fill a destination whose length the caller
// fixed (from the network, never from stream data); what a failed read
// did not reach is zeroed.
func (s *Reader) I32sInto(dst []int32) {
	for len(dst) > 0 {
		b := s.chunk(len(dst), 4)
		if b == nil {
			clear(dst)
			return
		}
		n := len(b) / 4
		for i := range dst[:n] {
			dst[i] = int32(le.Uint32(b[4*i:]))
		}
		dst = dst[n:]
	}
}

func (s *Reader) I64sInto(dst []int64) {
	for len(dst) > 0 {
		b := s.chunk(len(dst), 8)
		if b == nil {
			clear(dst)
			return
		}
		n := len(b) / 8
		for i := range dst[:n] {
			dst[i] = int64(le.Uint64(b[8*i:]))
		}
		dst = dst[n:]
	}
}

// I32Slice and U64Slice read n elements, growing the result a chunk at a
// time as the bytes arrive instead of pre-allocating n: see the package
// comment. A result that fits one chunk is allocated exactly.
func (s *Reader) I32Slice(n int) []int32 {
	var out []int32
	for n > 0 {
		b := s.chunk(n, 4)
		if b == nil {
			return nil
		}
		k := len(b) / 4
		out = slices.Grow(out, k)[:len(out)+k]
		for i, dst := 0, out[len(out)-k:]; i < k; i++ {
			dst[i] = int32(le.Uint32(b[4*i:]))
		}
		n -= k
	}
	return out
}

func (s *Reader) U64Slice(n int) []uint64 {
	var out []uint64
	for n > 0 {
		b := s.chunk(n, 8)
		if b == nil {
			return nil
		}
		k := len(b) / 8
		out = slices.Grow(out, k)[:len(out)+k]
		for i, dst := 0, out[len(out)-k:]; i < k; i++ {
			dst[i] = le.Uint64(b[8*i:])
		}
		n -= k
	}
	return out
}

// Blob reads n raw bytes a chunk at a time, for the same reason.
func (s *Reader) Blob(n int) []byte {
	var out []byte
	for n > 0 {
		b := s.chunk(n, 1)
		if b == nil {
			return nil
		}
		out = append(out, b...)
		n -= len(b)
	}
	return out
}

// BitsInto unpacks a Writer.Bits bitset into dst.
func (s *Reader) BitsInto(dst []bool) {
	var acc uint8
	for i := range dst {
		if i&7 == 0 {
			acc = s.U8()
		}
		dst[i] = acc&(1<<(i&7)) != 0
	}
}

// End fails unless the stream is exhausted: a blob of known extent must
// not carry trailing bytes.
func (s *Reader) End() {
	if s.err == nil && (s.r < s.w || s.fetch(1) != io.EOF) {
		s.Fail("trailing bytes")
	}
}
