package vcsim

// FuzzRestoreSim feeds RestoreSim adversarially mutated snapshots —
// truncations, bit-flips, and length inflations of a real WORMSNAP blob
// (taken mid-run, with a fault schedule attached so the v2 fault block
// is under attack too). The contract under corruption:
//
//   - never panic;
//   - fail only with the typed snapshot errors (ErrSnapshotFormat,
//     ErrSnapshotCorrupt, ErrSnapshotConfig) so callers can triage a bad
//     checkpoint without string matching;
//   - when a mutation lands in a non-validated field and the restore
//     succeeds anyway, the restored simulator must still step to
//     quiescence without wedging or panicking.
//
// CI runs this as a short -fuzztime smoke; `go test` replays the seed
// corpus.

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/snap/snaptest"
)

func FuzzRestoreSim(f *testing.F) {
	// The reference snapshot the mutations attack: a mid-run cut of a
	// faulted butterfly workload, with worms in flight, parked worms,
	// and an open outage — so the v2 fault block is in the blob.
	set, releases := fuzzWorkload(9, 0, 12)
	cfg := Config{
		VirtualChannels: 2,
		Arbitration:     ArbAge,
		Seed:            9,
		MaxSteps:        1 << 14,
		Faults: fault.Generate(fault.GenConfig{
			Seed: 99, NumEdges: set.G.NumEdges(), Horizon: 40, Rate: 0.5, MeanOutage: 30,
		}),
		Retry: RetryPolicy{MaxAttempts: 3, Backoff: 4, BackoffCap: 32},
	}
	si, err := NewSim(set.G, cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := range set.Msgs {
		if _, err := si.Inject(set.Msgs[i], releases[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := si.StepTo(9); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := si.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	// Seed corpus: one of each mutation class, plus the identity.
	f.Add(uint8(0), uint32(0), uint8(0))                    // untouched
	f.Add(uint8(1), uint32(len(valid)/2), uint8(0))         // truncate mid-blob
	f.Add(uint8(2), uint32(len(valid)/3), uint8(0x80))      // flip a high bit
	f.Add(uint8(2), uint32(len(valid)-4), uint8(0xFF))      // flip tail bytes
	f.Add(uint8(3), uint32(len(valid)/2), uint8(17))        // inflate mid-blob
	f.Add(uint8(3), uint32(len(valid)), uint8(255))         // append garbage
	f.Add(uint8(2), uint32(len(snapMagic)+2), uint8(0x01))  // corrupt version
	f.Add(uint8(1), uint32(0), uint8(0))                    // empty input
	f.Add(uint8(2), uint32(len(snapMagic)+20), uint8(0x40)) // corrupt config section
	f.Add(uint8(1), uint32(3*len(valid)/4), uint8(0))       // truncate in worm state
	// A record's end times against its status (see setEndTime): a delivered
	// worm given a drop time, a worm in flight given a deliver time.
	starts := recordStarts(si)
	for _, seed := range []struct {
		want  []Status
		field int
	}{
		{[]Status{StatusDelivered}, recDrop},
		{[]Status{StatusWaiting, StatusActive}, recDeliver},
	} {
		id := 0
		for id < si.numWorms && !slices.Contains(seed.want, si.worm(id).status) {
			id++
		}
		if id == si.numWorms {
			f.Fatalf("no %v worm in the reference snapshot", seed.want)
		}
		f.Add(uint8(2), uint32(starts[id]+seed.field+3), uint8(0xFF))
	}

	f.Fuzz(func(t *testing.T, mode uint8, pos uint32, val uint8) {
		mut := snaptest.Mutate(valid, mode, pos, val)

		si, err := RestoreSim(set.G, cfg, bytes.NewReader(mut))
		if err != nil {
			if !errors.Is(err, ErrSnapshotFormat) &&
				!errors.Is(err, ErrSnapshotCorrupt) &&
				!errors.Is(err, ErrSnapshotConfig) {
				t.Fatalf("untyped restore error %T: %v", err, err)
			}
			return
		}
		// The mutation decoded — a flipped counter or timestamp in a
		// non-validated field. The restored simulator must still run out
		// without wedging (the horizon bounds the drain).
		snapDrain(si)
	})
}
