package vcsim

// The codec at the snap.Reader's seams. RestoreSim decodes a worm
// record's fixed part from one window of the reader's buffer, so the
// cases that matter are the ones the happy path never sees: a record
// that straddles a buffer refill (whatever the source hands over per
// Read), and a stream that ends inside a record.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/message"
	"wormhole/internal/snap/snaptest"
)

// seamCases are mid-run cuts whose streams run to several reader
// buffers of worm records: rigid lanes, deep lanes on a shared pool (prog
// arrays behind the fixed part), and an open outage (the v2 fault block).
type seamCase struct {
	name string
	set  *message.Set
	cfg  Config
	si   *Sim // paused at the cut
}

func seamCases(t *testing.T) []seamCase {
	t.Helper()
	cases := []seamCase{
		{name: "rigid", cfg: Config{VirtualChannels: 2, Arbitration: ArbAge, Seed: 5, MaxSteps: 1 << 14}},
		{name: "deep shared pool", cfg: Config{VirtualChannels: 2, LaneDepth: 3, SharedPool: true, Arbitration: ArbRandom, Seed: 6, MaxSteps: 1 << 14}},
		{name: "fault plane", cfg: Config{VirtualChannels: 2, Arbitration: ArbAge, Seed: 9, MaxSteps: 1 << 14,
			Retry: RetryPolicy{MaxAttempts: 3, Backoff: 4, BackoffCap: 32}}},
	}
	for i := range cases {
		c := &cases[i]
		set, releases := fuzzWorkload(uint64(40+i), 0, 160)
		c.set = set
		if c.name == "fault plane" {
			c.cfg.Faults = fault.Generate(fault.GenConfig{
				Seed: 99, NumEdges: set.G.NumEdges(), Horizon: 40, Rate: 0.5, MeanOutage: 30,
			})
		}
		si, err := NewSim(set.G, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		snapInject(t, si, set, releases)
		if err := si.StepTo(14); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if si.Active() == 0 || si.delivered == 0 {
			t.Fatalf("%s: cut at step 14 has %d in flight and %d delivered; want both kinds of record", c.name, si.Active(), si.delivered)
		}
		c.si = si
	}
	return cases
}

// TestRestoreAtEveryRefillBoundary: whatever the source hands over per
// Read (snaptest.Sources), the restored Sim is the one the stream
// describes — its own snapshot is the stream it was built from — and it
// finishes the run identically.
func TestRestoreAtEveryRefillBoundary(t *testing.T) {
	for _, c := range seamCases(t) {
		var blob bytes.Buffer
		if err := c.si.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		if blob.Len() < 3*4096 {
			t.Fatalf("%s: %d-byte stream does not span several reader buffers", c.name, blob.Len())
		}
		snapDrain(c.si)
		want := c.si.Result()
		for name, wrap := range snaptest.Sources {
			restored, err := RestoreSim(c.set.G, c.cfg, wrap(bytes.NewReader(blob.Bytes())))
			if err != nil {
				t.Fatalf("%s through a %s reader: %v", c.name, name, err)
			}
			var again bytes.Buffer
			if err := restored.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), blob.Bytes()) {
				t.Fatalf("%s through a %s reader: the restored Sim snapshots differently from the stream it was built from", c.name, name)
			}
			snapDrain(restored)
			if got := restored.Result(); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s through a %s reader: continuation diverged\nwant %+v\n got %+v", c.name, name, want, got)
			}
		}
	}
}

// TestRestoreTruncatedInsideWormRecord cuts the stream at every byte of
// the first, a middle and the last worm record — fixed part, both length
// prefixes, path and prog bodies. Each cut is ErrSnapshotCorrupt; none
// panics and none hands back a Sim.
func TestRestoreTruncatedInsideWormRecord(t *testing.T) {
	for _, c := range seamCases(t) {
		var blob bytes.Buffer
		if err := c.si.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		valid := blob.Bytes()
		starts := recordStarts(c.si)

		// An in-flight record near the middle, so path (and prog) bodies
		// are cut too.
		mid := c.si.numWorms / 2
		for c.si.worm(mid).off < 0 {
			mid++
		}
		for _, id := range []int{0, mid, c.si.numWorms - 1} {
			if key := binary.LittleEndian.Uint64(valid[starts[id]:]); keyID(key) != id {
				t.Fatalf("%s: computed offset %d of worm %d holds key %#x", c.name, starts[id], id, key)
			}
			for cut := starts[id]; cut < starts[id+1]; cut++ {
				si, err := RestoreSim(c.set.G, c.cfg, bytes.NewReader(valid[:cut]))
				if !errors.Is(err, ErrSnapshotCorrupt) || si != nil {
					t.Fatalf("%s: cut at byte %d of worm %d's %d: Sim %v, err %v; want ErrSnapshotCorrupt",
						c.name, cut-starts[id], id, starts[id+1]-starts[id], si != nil, err)
				}
			}
		}
	}
}

// recordStarts returns where each worm record of si's snapshot starts —
// behind the magic, version, config section, fault schedule, clock and
// worm count — plus, last, where the record after the final one would.
func recordStarts(si *Sim) []int {
	off := len(snapMagic) + 4
	for _, f := range si.configFields() {
		off += f.width
	}
	off += 4 + 13*len(si.faults) + 8 + 4
	starts := make([]int, si.numWorms+1)
	for id := 0; id < si.numWorms; id++ {
		starts[id] = off
		path, prog := si.buffers(si.worm(id))
		off += wormFixedBytes + 4 + 4*len(path) + 4 + 4*len(prog)
	}
	starts[si.numWorms] = off
	return starts
}

// Offsets of the two end times inside a worm record's fixed part, and the
// snaptest.Mutate inputs that flip one of them from -1 to a real step: XOR
// 0xFF into its high byte turns 0xFFFFFFFF into 0x00FFFFFF.
const (
	recDeliverTime = 28
	recDropTime    = 32
)

// setEndTime is the Mutate call that gives the worm record at start a
// deliver (or drop) time it did not have.
func setEndTime(valid []byte, start, field int) []byte {
	return snaptest.Mutate(valid, 2, uint32(start+field+3), 0xFF)
}

// TestRestoreRejectsEndTimeAgainstStatus: the worm record keeps one end
// time, which its status reads as a delivery or a drop, so a stream whose
// other time is set — a delivered worm with a drop time, a worm in flight
// with either — describes a record the Sim cannot hold. Each is
// ErrSnapshotCorrupt, never a Sim that reports times the stream did not say.
func TestRestoreRejectsEndTimeAgainstStatus(t *testing.T) {
	for _, c := range seamCases(t) {
		var blob bytes.Buffer
		if err := c.si.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		valid := blob.Bytes()
		starts := recordStarts(c.si)
		find := func(want ...Status) int {
			for id := 0; id < c.si.numWorms; id++ {
				if slices.Contains(want, c.si.worm(id).status) {
					return id
				}
			}
			t.Fatalf("%s: no %v worm at the cut", c.name, want)
			return -1
		}
		delivered, flying := find(StatusDelivered), find(StatusWaiting, StatusActive)
		for _, m := range []struct {
			what      string
			id, field int
		}{
			{"delivered with a drop time", delivered, recDropTime},
			{"in flight with a deliver time", flying, recDeliverTime},
			{"in flight with a drop time", flying, recDropTime},
		} {
			mut := setEndTime(valid, starts[m.id], m.field)
			si, err := RestoreSim(c.set.G, c.cfg, bytes.NewReader(mut))
			if !errors.Is(err, ErrSnapshotCorrupt) || si != nil || !strings.Contains(err.Error(), "deliver time") {
				t.Errorf("%s: worm %d %s: Sim %v, err %v; want ErrSnapshotCorrupt naming the times",
					c.name, m.id, m.what, si != nil, err)
			}
		}
	}
}
