package snap

// Checkpoints at rest: the integrity frame and the atomic file write.
//
// The stream codecs validate structure; the frame validates the bytes
// themselves, so any corruption — a torn write from a crash, a flipped
// bit from a bad disk, a truncation from a full one — is detected before
// a codec ever sees the payload.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// frameMagic opens every framed file: magic, CRC-32 (IEEE) of the
// payload, payload.
const frameMagic = "WHCKPT01"

// Seal wraps payload in the integrity frame.
func Seal(payload []byte) []byte {
	out := make([]byte, 0, len(frameMagic)+4+len(payload))
	out = append(out, frameMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// Open verifies the frame and returns the payload (aliasing raw). Every
// truncation and every single-byte flip of a sealed file is rejected,
// with an error wrapping bad.
func Open(raw []byte, bad error) ([]byte, error) {
	if len(raw) < len(frameMagic)+4 || string(raw[:len(frameMagic)]) != frameMagic {
		return nil, fmt.Errorf("%w: bad frame", bad)
	}
	payload := raw[len(frameMagic)+4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[len(frameMagic):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", bad)
	}
	return payload, nil
}

// WriteFile writes blob to path atomically — a temp file in path's
// directory, then a rename — so neither a concurrent reader nor a crash
// ever observes a partial file under path.
func WriteFile(path string, blob []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
