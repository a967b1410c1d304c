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
//   - the CRC-32 integrity frame and the atomic temp+rename file write
//     (file.go).
//
// Stdlib only, no simulator imports.
package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Writer serializes fixed-width little-endian values. The underlying
// bufio.Writer keeps the first write error and refuses everything after
// it, so call sites stay unconditional and Flush reports the failure.
type Writer struct {
	w *bufio.Writer
}

func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Flush writes out anything buffered and returns the first error any
// write hit.
func (s *Writer) Flush() error { return s.w.Flush() }

// Raw writes b with no length prefix (magics, embedded blobs whose
// length was written separately).
func (s *Writer) Raw(b []byte) { s.w.Write(b) } //nolint:errcheck // sticky, reported by Flush

// Uint writes the low n bytes of v, n ≤ 8: the one fixed-width
// primitive everything below is spelled in.
func (s *Writer) Uint(n int, v uint64) {
	s.Raw(binary.LittleEndian.AppendUint64(s.w.AvailableBuffer(), v)[:n])
}

func (s *Writer) U8(v uint8)    { s.Uint(1, uint64(v)) }
func (s *Writer) U32(v uint32)  { s.Uint(4, uint64(v)) }
func (s *Writer) U64(v uint64)  { s.Uint(8, v) }
func (s *Writer) I32(v int32)   { s.U32(uint32(v)) }
func (s *Writer) I64(v int64)   { s.U64(uint64(v)) }
func (s *Writer) F64(v float64) { s.U64(math.Float64bits(v)) }

func (s *Writer) Bool(v bool) {
	if v {
		s.U8(1)
	} else {
		s.U8(0)
	}
}

// I32s and U64s write a u32 element count, then the elements.
func (s *Writer) I32s(v []int32) {
	s.U32(uint32(len(v)))
	for _, x := range v {
		s.I32(x)
	}
}

func (s *Writer) U64s(v []uint64) {
	s.U32(uint32(len(v)))
	for _, x := range v {
		s.U64(x)
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
	r   *bufio.Reader
	bad error // sentinel every failure wraps
	err error
	buf [8]byte
}

// NewReader reads from r; every failure wraps bad. A bufio.Reader
// passed in is used as is, so a stream that embeds another format's
// stream hands Rest to that format's restore without losing bytes.
func NewReader(r io.Reader, bad error) *Reader {
	return &Reader{r: bufio.NewReader(r), bad: bad}
}

// Err returns the first failure, or nil.
func (s *Reader) Err() error { return s.err }

// Rest returns the unread remainder of the stream, buffered bytes
// included.
func (s *Reader) Rest() io.Reader { return s.r }

// Fail records a validation failure (first one wins).
func (s *Reader) Fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("%w: %s", s.bad, fmt.Sprintf(format, args...))
	}
}

// fill reads exactly len(b) bytes; false after any failure.
func (s *Reader) fill(b []byte) bool {
	if s.err != nil {
		return false
	}
	if _, err := io.ReadFull(s.r, b); err != nil {
		s.err = fmt.Errorf("%w: %v", s.bad, err)
		return false
	}
	return true
}

// Magic consumes len(m) bytes and reports whether they are m.
func (s *Reader) Magic(m string) bool {
	b := make([]byte, len(m))
	return s.fill(b) && string(b) == m
}

// Uint reads an n-byte unsigned value, n ≤ 8.
func (s *Reader) Uint(n int) uint64 {
	s.buf = [8]byte{}
	if !s.fill(s.buf[:n]) {
		return 0
	}
	return binary.LittleEndian.Uint64(s.buf[:])
}

func (s *Reader) U8() uint8    { return uint8(s.Uint(1)) }
func (s *Reader) Bool() bool   { return s.U8() != 0 }
func (s *Reader) U32() uint32  { return uint32(s.Uint(4)) }
func (s *Reader) U64() uint64  { return s.Uint(8) }
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

// I32sInto and I64sInto fill a destination whose length the caller
// fixed (from the network, never from stream data).
func (s *Reader) I32sInto(dst []int32) {
	for i := range dst {
		dst[i] = s.I32()
	}
}

func (s *Reader) I64sInto(dst []int64) {
	for i := range dst {
		dst[i] = s.I64()
	}
}

// I32Slice and U64Slice read n elements, growing the result as they
// arrive instead of pre-allocating n: see the package comment.
func (s *Reader) I32Slice(n int) []int32 {
	var out []int32
	for i := 0; i < n && s.err == nil; i++ {
		out = append(out, s.I32())
	}
	if s.err != nil {
		return nil
	}
	return out
}

func (s *Reader) U64Slice(n int) []uint64 {
	var out []uint64
	for i := 0; i < n && s.err == nil; i++ {
		out = append(out, s.U64())
	}
	if s.err != nil {
		return nil
	}
	return out
}

// Blob reads n raw bytes in bounded chunks, for the same reason.
func (s *Reader) Blob(n int) []byte {
	var out []byte
	for n > 0 {
		chunk := make([]byte, min(n, 1<<16))
		if !s.fill(chunk) {
			return nil
		}
		out = append(out, chunk...)
		n -= len(chunk)
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
	if s.err != nil {
		return
	}
	if _, err := s.r.ReadByte(); err != io.EOF {
		s.Fail("trailing bytes")
	}
}
