package main

// The -chaos fault injector.
//
// Checkpoint files on disk are not raw WRUNSNAP blobs: the daemon seals
// them in internal/snap's CRC-32 integrity frame, so *any* corruption is
// detected before the runner codec ever sees the bytes, and recovery
// falls back to a fresh run instead of resuming from (and serving
// results derived from) silently-corrupt state.
//
// The -chaos flag arms a deterministic, seed-derived injector on that
// write path: checkpoint writes randomly fail as if the disk were
// full, tear (a prefix of the blob hits the disk), flip a byte, or
// vanish entirely. It exists for the chaos e2e harness, which SIGKILLs a
// chaotic daemon mid-run and requires the restart to produce results
// byte-identical to an uninterrupted run — every injected corruption
// must be caught by the frame and degrade to a fresh run, never crash
// the daemon and never leak into served results.

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"wormhole/internal/rng"
)

// errCorruptCheckpoint is what snap.Open wraps when a checkpoint file
// fails its frame.
var errCorruptCheckpoint = errors.New("wormholed: corrupt checkpoint")

// chaosInjector deterministically mangles checkpoint writes. One
// injector serves all workers, so the draw sequence (and therefore the
// injected fault pattern) is fixed by the seed and the order of
// checkpoint attempts.
type chaosInjector struct {
	mu sync.Mutex
	r  *rng.Source
}

func newChaosInjector(seed uint64) *chaosInjector {
	return &chaosInjector{r: rng.New(seed)}
}

// mangleWrite decides the fate of one checkpoint write. It returns the
// (possibly corrupted) bytes to write, nil bytes to drop the write, or
// an error to simulate a full disk.
func (c *chaosInjector) mangleWrite(path string, blob []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.r.Intn(5) {
	case 0: // disk full
		fmt.Fprintf(os.Stderr, "wormholed: chaos: ENOSPC on %s\n", path)
		return nil, fmt.Errorf("chaos: %w", errDiskFull)
	case 1: // torn write: a prefix reaches the disk
		cut := c.r.Intn(len(blob) + 1)
		fmt.Fprintf(os.Stderr, "wormholed: chaos: torn write (%d/%d bytes) on %s\n", cut, len(blob), path)
		return blob[:cut], nil
	case 2: // bit flip
		mangled := append([]byte(nil), blob...)
		pos := c.r.Intn(len(mangled))
		mangled[pos] ^= 1 << c.r.Intn(8)
		fmt.Fprintf(os.Stderr, "wormholed: chaos: bit flip at %d on %s\n", pos, path)
		return mangled, nil
	case 3: // write lost entirely
		fmt.Fprintf(os.Stderr, "wormholed: chaos: dropped write on %s\n", path)
		return nil, nil
	default: // clean
		return blob, nil
	}
}

var errDiskFull = errors.New("no space left on device")
