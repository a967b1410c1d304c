package snap

// Checkpoints at rest: the integrity frame and the atomic file write.
//
// The stream codecs validate structure; the frame validates the bytes
// themselves, so any corruption — a torn write from a crash, a flipped
// bit from a bad disk, a truncation from a full one — is detected before
// a codec ever sees the payload.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// frameMagic opens every framed file: magic, CRC-32 (IEEE) of the
// payload, payload.
const (
	frameMagic  = "WHCKPT01"
	frameHeader = len(frameMagic) + 4
)

// Frame is a reusable buffer a checkpoint is encoded into and sealed in:
// the header's room is reserved up front, the payload is written behind
// it, and Seal fills the header in place — the bytes are produced once
// and never copied. The zero value is ready; Reset keeps the capacity, so
// a long-lived Frame (the daemon holds one per worker) stops allocating
// once it has seen its largest checkpoint.
type Frame struct {
	buf []byte
}

// Reset empties the frame for the next payload.
func (f *Frame) Reset() { f.buf = f.buf[:0] }

// Write appends p to the payload; it never fails. Capacity at least
// doubles when it must grow: a run's checkpoints only get larger, and
// append's 1.25× for large slices would re-copy each of them several
// times over.
func (f *Frame) Write(p []byte) (int, error) {
	if need := max(len(f.buf), frameHeader) + len(p); need > cap(f.buf) {
		f.buf = append(make([]byte, 0, max(need, 2*cap(f.buf))), f.buf...)
	}
	if len(f.buf) == 0 {
		f.buf = f.buf[:frameHeader] // Seal fills it
	}
	f.buf = append(f.buf, p...)
	return len(p), nil
}

// Seal fills in the header over the payload written so far and returns
// the framed bytes, which alias the Frame until its next Reset.
func (f *Frame) Seal() []byte {
	f.Write(nil) //nolint:errcheck // reserves the header of an empty payload
	copy(f.buf, frameMagic)
	binary.LittleEndian.PutUint32(f.buf[len(frameMagic):], crc32.ChecksumIEEE(f.buf[frameHeader:]))
	return f.buf
}

// Open verifies the frame and returns the payload (aliasing raw). Every
// truncation and every single-byte flip of a sealed file is rejected,
// with an error wrapping bad.
func Open(raw []byte, bad error) ([]byte, error) {
	if len(raw) < frameHeader || string(raw[:len(frameMagic)]) != frameMagic {
		return nil, fmt.Errorf("%w: bad frame", bad)
	}
	payload := raw[frameHeader:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[len(frameMagic):]) {
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
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+tmpMark+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(blob)
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
