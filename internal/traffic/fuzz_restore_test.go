package traffic

// FuzzRestoreRunner feeds RestoreRunner adversarially mutated runner
// snapshots — truncations, bit-flips, and length inflations of a real
// WRUNSNAP blob taken mid-run with a fault schedule attached, so both
// the runner framing and the embedded WORMSNAP stream (including its v2
// fault block) are under attack. The contract under corruption:
//
//   - never panic;
//   - fail only with typed errors: ErrRunnerSnapshot for runner-level
//     framing, or the vcsim snapshot errors for the embedded stream;
//   - when a mutation decodes anyway, Resume must terminate (the run
//     phases and the simulator horizon bound it) without panicking.
//
// CI runs this as a short -fuzztime smoke; `go test` replays the seed
// corpus.

import (
	"bytes"
	"errors"
	"testing"

	"wormhole/internal/snap/snaptest"
	"wormhole/internal/vcsim"
)

func FuzzRestoreRunner(f *testing.F) {
	cfg := wireGoldenCfg()
	cfg.Metrics = nil
	var blob bytes.Buffer
	if err := pausedAt(f, cfg, 60).Snapshot(&blob); err != nil {
		f.Fatal(err)
	}
	valid := blob.Bytes()

	// Seed corpus: one of each mutation class, plus the identity.
	f.Add(uint8(0), uint32(0), uint8(0))                 // untouched
	f.Add(uint8(1), uint32(len(valid)/2), uint8(0))      // truncate mid-blob
	f.Add(uint8(1), uint32(0), uint8(0))                 // empty input
	f.Add(uint8(2), uint32(9), uint8(0x01))              // corrupt version
	f.Add(uint8(2), uint32(len(valid)/4), uint8(0x80))   // corrupt digest/counters
	f.Add(uint8(2), uint32(2*len(valid)/3), uint8(0x08)) // corrupt embedded sim
	f.Add(uint8(2), uint32(len(valid)-5), uint8(0xFF))   // corrupt trailer region
	f.Add(uint8(3), uint32(len(valid)/2), uint8(33))     // inflate mid-blob
	f.Add(uint8(3), uint32(len(valid)), uint8(255))      // append garbage
	f.Add(uint8(1), uint32(9*len(valid)/10), uint8(0))   // truncate in sim state

	f.Fuzz(func(t *testing.T, mode uint8, pos uint32, val uint8) {
		mut := snaptest.Mutate(valid, mode, pos, val)

		r, err := RestoreRunner(cfg, bytes.NewReader(mut))
		if err != nil {
			if !errors.Is(err, ErrRunnerSnapshot) &&
				!errors.Is(err, vcsim.ErrSnapshotFormat) &&
				!errors.Is(err, vcsim.ErrSnapshotCorrupt) &&
				!errors.Is(err, vcsim.ErrSnapshotConfig) {
				t.Fatalf("untyped restore error %T: %v", err, err)
			}
			return
		}
		// The mutation decoded — a counter or RNG cursor flipped in a
		// non-validated field. The resumed run must still terminate
		// (phases and the simulator horizon bound it); an error result
		// is fine, a panic or a hang is not.
		_, _ = r.Resume()
	})
}
