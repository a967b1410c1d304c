package snap

// Checkpoints at rest: the integrity frame and the atomic file write.
//
// The stream codecs validate structure; the frame validates the bytes
// themselves, so any corruption — a torn write from a crash, a flipped
// bit from a bad disk, a truncation from a full one — is detected before
// a codec ever sees the payload.
//
// Writing a frame streams (WriteFramed): the payload goes to the temp
// file through a fixed buffer while its CRC accumulates, and the header
// is filled in last, in place. Reading one does not: Open checks the CRC
// of the whole payload before a codec may decode a byte of it, so a
// resume holds the file in memory once. Checksums inside each section of
// the stream would let the read side stream too.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// frameMagic opens every framed file: magic, CRC-32 (IEEE) of the
// payload, payload.
const (
	frameMagic  = "WHCKPT01"
	frameHeader = len(frameMagic) + 4
)

// frameBufSize is the write buffer a framed file streams through: a
// multi-MB checkpoint is a few writes, and what a daemon holds for
// checkpointing stays a few of these whatever a checkpoint's size. (A
// 64 KiB buffer allocated per call cost system time; this one is pooled.)
const frameBufSize = 512 << 10

// framer streams a payload into a file behind the header's room, keeping
// the CRC as it goes. Finished framers wait in framers for the next
// WriteFramed: at most as many exist as framed writes ever ran at once.
// (A sync.Pool would not do: it hands a buffer back only on the P that
// returned it, and a daemon worker changes P across its file syscalls,
// so most of its checkpoints would allocate a new buffer.)
type framer struct {
	f    File
	buf  []byte // frameBufSize long; buf[:n] is pending
	n    int
	crc  uint32
	size int64 // bytes handed to f
}

var framers struct {
	sync.Mutex
	free []*framer
}

// Write adds p to the payload. The file sees only whole buffers, and
// whatever is left when the payload ends.
func (w *framer) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	for rest := p; len(rest) > 0; {
		if w.n == len(w.buf) {
			if err := w.flush(); err != nil {
				return 0, err
			}
		}
		k := copy(w.buf[w.n:], rest)
		w.n += k
		rest = rest[k:]
	}
	return len(p), nil
}

func (w *framer) flush() error {
	n, err := w.f.Write(w.buf[:w.n])
	w.size += int64(n)
	w.n = 0
	return err
}

// frame writes f's framed file: the header's room (zeros), the payload
// encode writes, then the header over the room with one positional write.
func (w *framer) frame(f File, encode func(io.Writer) error) error {
	w.f, w.crc, w.size = f, 0, 0
	clear(w.buf[:frameHeader])
	w.n = frameHeader
	err := encode(w)
	if err == nil {
		err = w.flush()
	}
	if err != nil {
		return err
	}
	var hdr [frameHeader]byte
	copy(hdr[:], frameMagic)
	le.PutUint32(hdr[len(frameMagic):], w.crc)
	_, err = f.WriteAt(hdr[:], 0)
	return err
}

// WriteFramed writes the payload encode produces to path inside the
// integrity frame, as WriteFile writes a blob, and returns the file's
// size. The payload is never held whole: it streams through a pooled
// buffer of frameBufSize, so memory does not grow with the payload. The
// bytes on disk are magic, the CRC-32 of the payload, the payload — what
// Open verifies. A process killed before the header's write leaves an
// unrenamed temp (RemoveTemps); a machine death that tears the file
// leaves a frame Open refuses.
func WriteFramed(fsys FS, path string, encode func(io.Writer) error) (int64, error) {
	framers.Lock()
	var w *framer
	if k := len(framers.free); k > 0 {
		w, framers.free = framers.free[k-1], framers.free[:k-1]
	} else {
		w = &framer{buf: make([]byte, frameBufSize)}
	}
	framers.Unlock()
	err := writeAtomic(fsys, path, func(f File) error { return w.frame(f, encode) })
	size := w.size
	w.f = nil
	framers.Lock()
	framers.free = append(framers.free, w)
	framers.Unlock()
	return size, err
}

// Open verifies the frame and returns the payload (aliasing raw). Every
// truncation and every single-byte flip of a sealed file is rejected,
// with an error wrapping bad.
func Open(raw []byte, bad error) ([]byte, error) {
	if len(raw) < frameHeader || string(raw[:len(frameMagic)]) != frameMagic {
		return nil, fmt.Errorf("%w: bad frame", bad)
	}
	payload := raw[frameHeader:]
	if crc32.ChecksumIEEE(payload) != le.Uint32(raw[len(frameMagic):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", bad)
	}
	return payload, nil
}

// FS is the filesystem everything the daemon persists goes through. OS is
// the production implementation; snaptest.FS records every mutating
// operation in memory, so a test can restart on what a process death or
// a machine death after each one would have left. Only the two syncs make
// anything durable: a file's data once its Sync returned, a directory
// entry (a creation, a rename, a removal) once SyncDir of its parent did.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(from, to string) error
	Remove(name string) error
	MkdirAll(dir string) error
	SyncDir(dir string) error
	ReadFile(name string) ([]byte, error)
	ReadDir(dir string) ([]fs.DirEntry, error)
}

// File is a file CreateTemp opened for writing. It is an alias of an
// unnamed interface, so snaptest can declare the identical type without
// importing this package (whose own tests import snaptest).
type File = interface {
	Name() string
	Write(p []byte) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
}

// OS is the FS of the operating system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to sync: its Close reports nothing
	return d.Sync()
}

// tmpMark is what every WriteFile temp name carries after its target's.
const tmpMark = ".tmp"

// WriteFile writes blob to path atomically and durably: a temp file in
// path's directory, synced, renamed over path, then the directory synced.
// Neither a concurrent reader nor a crash ever observes a partial file
// under path, and once WriteFile returns nil the file survives a machine
// death too, if fsys's syncs are real. A process killed before the rename
// leaves the temp file behind; RemoveTemps sweeps those.
func WriteFile(fsys FS, path string, blob []byte) error {
	return writeAtomic(fsys, path, func(f File) error {
		_, err := f.Write(blob)
		return err
	})
}

// writeAtomic is WriteFile and WriteFramed: fill writes the temp file,
// which is then synced, closed and renamed over path, and path's
// directory synced. On any failure the temp file is removed.
func writeAtomic(fsys FS, path string, fill func(File) error) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+tmpMark+"*")
	if err != nil {
		return err
	}
	err = fill(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return fsys.SyncDir(dir)
}

// RemoveTemps deletes the temp files interrupted WriteFile calls left in
// dir. Only a directory's owner may call it, and only while no WriteFile
// into dir is in flight (the daemon does, at startup). A missing dir is
// not an error.
func RemoveTemps(fsys FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		// CreateTemp put a decimal number where WriteFile's pattern ends.
		_, serial, isTemp := strings.Cut(e.Name(), tmpMark)
		if isTemp && serial != "" && strings.Trim(serial, "0123456789") == "" && e.Type().IsRegular() {
			if rerr := fsys.Remove(filepath.Join(dir, e.Name())); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	return err
}
