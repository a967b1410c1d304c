package vcsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/snap"
	"wormhole/internal/topology"
)

// FuzzSealChunk: a full chunk of finished records seals and decodes bit for
// bit, whatever its fields hold. Records share a drawn common shape except
// an odd/256 share that redraw some of its fields, from one to all (the
// key's high half apart, which is drawn below); every int32 field is
// drawn across its whole range (−1, 0, MaxHorizon and both int32 extremes
// included), the status over every finished status, the woken and
// stretched bits both ways, the release as a walk whose steps may be
// negative (a fault retry moves a worm's release and key), and the key's
// high half as the policy writes it or, now and then, anything at all.
// The chunk's wire form, as Snapshot transcodes it, must equal its records'.
//
// Checked against scratch copies whose encoder compares the template
// without blockedOn (records that differ in it alone decoded the
// template's), whose record drops waitEdge, and whose writeSealed leaves
// waitEdge unwritten: each failed here, and the last two also moved
// TestSealedSnapshotDigest's digests.
func FuzzSealChunk(f *testing.F) {
	f.Add(uint64(1), uint8(ArbAge), uint8(0))
	f.Add(uint64(2), uint8(ArbByID), uint8(16))
	f.Add(uint64(3), uint8(ArbRandom), uint8(255))
	f.Add(uint64(4), uint8(ArbAge), uint8(128))
	f.Fuzz(func(t *testing.T, seed uint64, arb, odd uint8) {
		r := rng.New(seed)
		si := emptySim(1, Config{VirtualChannels: 1, Arbitration: Policy(arb % 3)})
		any32 := func() int32 {
			switch r.Intn(8) {
			case 0:
				return -1
			case 1:
				return 0
			case 2:
				return MaxHorizon
			case 3:
				return math.MinInt32
			case 4:
				return math.MaxInt32
			case 5:
				return int32(r.Intn(64))
			}
			return int32(uint32(r.Uint64()))
		}
		finished := []Status{StatusDelivered, StatusDropped, StatusAborted}
		// redraw redraws each shape field of w with probability 1/k.
		redraw := func(w *worm, k int) {
			for f := range shapeFields {
				if r.Intn(k) != 0 {
					continue
				}
				switch f {
				case shD:
					w.d = any32()
				case shL:
					w.l = any32()
				case shFrontier:
					w.frontier = any32()
				case shStreak:
					w.streak = any32()
				case shStatus:
					w.status = finished[r.Intn(len(finished))]
				case shWoken:
					w.woken = !w.woken
				case shStretched:
					w.stretched = !w.stretched
				case shParkedAt:
					w.parkedAt = any32()
				case shFHead:
					w.fHead = any32()
				case shLastInj:
					w.lastInj = any32()
				case shBlockedOn:
					w.blockedOn = any32()
				case shRetries:
					w.retries = any32()
				}
			}
		}
		var common worm
		redraw(&common, 1)
		release := int32(r.Intn(1 << 20))
		for i := 0; i < WormsPerChunk; i++ {
			w, id := si.addWorm()
			rec := common
			if r.Intn(256) < int(odd) {
				redraw(&rec, 1+r.Intn(shapeFields)) // from every field to about one
			}
			switch r.Intn(16) {
			case 0:
				release = any32()
			case 1:
				release -= int32(r.Intn(100))
			default:
				release += int32(r.Intn(3))
			}
			rec.off = -1
			rec.release = release
			rec.injectTime = release + int32(r.Intn(50))
			rec.end = rec.injectTime + int32(r.Intn(500))
			rec.stalls = int32(r.Intn(40))
			rec.waitEdge = int32(r.Intn(4))
			if r.Intn(8) == 0 {
				rec.injectTime, rec.end, rec.stalls, rec.waitEdge = any32(), any32(), any32(), any32()
			}
			rec.key = si.policyKey(int(release), id)
			if r.Intn(8) == 0 {
				rec.key = uint64(uint32(any32()))<<32 | uint64(uint32(id))
			}
			*w = rec
			si.finishRecord(id)
		}
		want := *si.wormChunks[0]
		var wantWire bytes.Buffer
		for i := range want {
			var rec [wormFixedBytes + 8]byte
			putRecord((*[wormFixedBytes]byte)(rec[:]), &want[i])
			wantWire.Write(rec[:])
		}
		si.sealQueued()
		if si.wormChunks[0] != nil {
			t.Fatal("a full chunk of finished records was not sealed")
		}
		n := 0
		for id, w := range si.records(false) {
			if *w != want[id] {
				t.Fatalf("record %d decoded as\n%+v\nsealed from\n%+v", id, *w, want[id])
			}
			n++
		}
		if n != WormsPerChunk {
			t.Fatalf("decoded %d records, sealed %d", n, WormsPerChunk)
		}
		// Snapshot writes a sealed chunk without decoding it into records.
		var wire bytes.Buffer
		sw := snap.NewWriter(&wire)
		si.writeSealed(sw, 0, new([wormFixedBytes + 8]byte))
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := wire.Bytes(); !bytes.Equal(got, wantWire.Bytes()) {
			at := 0
			for at < len(got) && at < wantWire.Len() && got[at] == wantWire.Bytes()[at] {
				at++
			}
			t.Fatalf("the sealed chunk's wire form differs from its records' at byte %d (record %d)", at, at/(wormFixedBytes+8))
		}
	})
}

// TestSealedSnapshotDigest pins sealing to "no wire byte moves" on runs
// long enough to seal several chunks: six 64-input butterfly runs, one per
// architecture and policy corner the kernels treat differently, each fed
// ≈ 41k messages of Bernoulli traffic below the knee. Every 1500 steps
// and once drained, the run is snapshotted, the snapshot restored and
// re-snapshotted byte for byte, and the run carries on in the restored
// Sim, so later cuts also cover a restored Sim's sealing. The digest is
// the sha256 of every snapshot of the run, recorded before chunks were
// sealed. At the end Result().PerMessage must equal, message by message,
// the stats OnComplete reported when each message finished.
//
// Checked against a scratch copy whose sealed form drops stalls: every
// digest moved and the PerMessage comparison failed.
func TestSealedSnapshotDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("≈ 250k messages over six runs")
	}
	const (
		inputs = 64
		length = 4
		steps  = 9000
		every  = 1500
		p      = 0.072 // messages per input per step: 0.288 flits, just under the rigid knee
	)
	bf := topology.NewButterfly(inputs)
	routes := make([]graph.Path, inputs*inputs)
	for s := 0; s < inputs; s++ {
		for d := 0; d < inputs; d++ {
			routes[s*inputs+d] = bf.Route(s, d)
		}
	}
	faults := fault.Generate(fault.GenConfig{Seed: 3, NumEdges: bf.G.NumEdges(), Horizon: steps, Rate: 0.2, MeanOutage: 40})
	for _, run := range []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"rigid age", Config{VirtualChannels: 2, Arbitration: ArbAge}, "b6c54edb21a29ca41040dd78103e0307ea0d26fba15511a513a55bae41fe1ec5"},
		{"deep static", Config{VirtualChannels: 2, LaneDepth: 4, Arbitration: ArbAge}, "543ca72941ff001fb64eac8ac84ff866f5dbc9cf9b0559e49343c8a9c4124767"},
		{"deep shared", Config{VirtualChannels: 2, LaneDepth: 4, SharedPool: true, Arbitration: ArbAge}, "ca070129e3a0c3a9a18cbd433b29f1bb223839a2ca2ffcbd510b889d2c3a3e37"},
		{"rigid by-id", Config{VirtualChannels: 2, Arbitration: ArbByID}, "78eb0a9bf6ad6a752528ae65dcee0f7fdd2692716320855cf68119ef5e0f441a"},
		{"rigid random", Config{VirtualChannels: 2, Arbitration: ArbRandom, Seed: 11}, "d43797ef451a81bc952010f107be8b6efa3268425ab7ef135f857a318b01104d"},
		{"faults and retry", Config{VirtualChannels: 2, Arbitration: ArbAge, Faults: faults,
			Retry: RetryPolicy{MaxAttempts: 3, Backoff: 4, BackoffCap: 64}}, "c96c5dddfb2fb9f2d3bb0cf9c214e3f28a2397c74274c26c32f373d4db63c3f9"},
	} {
		t.Run(run.name, func(t *testing.T) {
			var reported []MessageStats
			cfg := run.cfg
			cfg.MaxSteps = 1 << 20
			cfg.OnComplete = func(id message.ID, st MessageStats) {
				for int(id) >= len(reported) {
					reported = append(reported, MessageStats{Status: StatusWaiting})
				}
				reported[id] = st
			}
			si, err := NewSim(bf.G, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			cut := func() {
				var blob bytes.Buffer
				if err := si.Snapshot(&blob); err != nil {
					t.Fatal(err)
				}
				h.Write(blob.Bytes())
				restored, err := RestoreSim(bf.G, cfg, bytes.NewReader(blob.Bytes()))
				if err != nil {
					t.Fatalf("step %d: %v", si.Now(), err)
				}
				var again bytes.Buffer
				if err := restored.Snapshot(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), blob.Bytes()) {
					t.Fatalf("step %d: the restored Sim snapshots differently from the stream it was built from", si.Now())
				}
				si = restored
			}
			r := rng.New(17)
			for now := 0; now < steps; now++ {
				for src := 0; src < inputs; src++ {
					if r.Float64() < p {
						msg := message.Message{Length: length, Path: routes[src*inputs+r.Intn(inputs)]}
						if _, err := si.Inject(msg, now); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := si.Step(); err != nil {
					t.Fatalf("step %d: %v", now, err)
				}
				if (now+1)%every == 0 {
					cut()
				}
			}
			snapDrain(si)
			if si.Active() != 0 {
				t.Fatalf("%d messages still in flight after the drain", si.Active())
			}
			cut()
			sealed := 0
			for _, c := range si.wormChunks {
				if c == nil {
					sealed++
				}
			}
			if want := si.numWorms / WormsPerChunk; sealed != want {
				t.Errorf("drained, %d of %d chunks are sealed, want every full one: %d", sealed, len(si.wormChunks), want)
			}
			res := si.Result()
			retries := 0
			for _, st := range res.PerMessage {
				retries += st.Retries
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%d messages (%d aborted, %d retries, %d stalls), snapshot digest %s",
				len(res.PerMessage), res.Aborted, retries, res.TotalStalls, got)
			if got != run.digest {
				t.Errorf("snapshot digest %s, want %s", got, run.digest)
			}
			if len(res.PerMessage) != len(reported) {
				t.Fatalf("Result has %d messages, OnComplete reported %d", len(res.PerMessage), len(reported))
			}
			for id, st := range res.PerMessage {
				if st != reported[id] {
					t.Fatalf("message %d: Result %+v, OnComplete reported %+v", id, st, reported[id])
				}
			}
		})
	}
}
