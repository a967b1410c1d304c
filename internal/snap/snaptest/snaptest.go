// Package snaptest is the one corruption engine the checkpoint fuzzers
// share: FuzzReader (snap), FuzzRestoreSim (vcsim) and FuzzRestoreRunner
// (traffic) all attack a valid stream through Mutate, so their committed
// corpora mean the same thing everywhere. Sources is the other thing the
// three packages' restore tests share.
package snaptest

import (
	"bytes"
	"io"
	"testing/iotest"
)

// Sources are the ways a stream can reach a snap.Reader: all at once,
// one byte a Read, half of what each Read asks for, and the last bytes
// together with io.EOF. A restore must build the same state through each
// — a value or record straddling a buffer refill is reassembled, and an
// error that arrives with enough data does not fail the read it came
// with.
var Sources = map[string]func(io.Reader) io.Reader{
	"whole":    func(r io.Reader) io.Reader { return r },
	"one byte": iotest.OneByteReader,
	"half":     iotest.HalfReader,
	"data+EOF": iotest.DataErrReader,
}

// Mutate returns a corrupted copy of valid, steered by three fuzz
// inputs. mode%4 picks the class: 0 leaves the stream untouched, 1
// truncates it at pos, 2 XORs val|1 into byte pos (mod the length), 3
// splices 1+val%9 filler bytes of value val in at pos — the shape a
// corrupt length prefix or a torn-and-resumed write leaves behind.
func Mutate(valid []byte, mode uint8, pos uint32, val uint8) []byte {
	mut := append([]byte(nil), valid...)
	p := min(int(pos), len(mut))
	switch mode % 4 {
	case 1:
		mut = mut[:p]
	case 2:
		if len(mut) > 0 {
			mut[int(pos)%len(mut)] ^= val | 1
		}
	case 3:
		filler := bytes.Repeat([]byte{val}, 1+int(val)%9)
		mut = append(mut[:p:p], append(filler, valid[p:]...)...)
	}
	return mut
}
