package vcsim

// Small accessor and guard-rail tests: result helpers, enum strings, the
// MaxHorizon validation added with the 32-bit time layout, and the
// pending-window + arena corner cases of the storage overhaul.

import (
	"strings"
	"testing"

	"wormhole/internal/message"
	"wormhole/internal/topology"
)

func TestResultHelpersAndStrings(t *testing.T) {
	set, releases := fuzzWorkload(11, 0, 6)
	res := Run(set, releases, Config{VirtualChannels: 2})
	if !res.AllDelivered() {
		t.Fatal("butterfly workload must deliver")
	}
	if got := len(res.DeliveredIDs()); got != 6 {
		t.Fatalf("DeliveredIDs = %d, want 6", got)
	}
	if res.PerMessage[0].Latency() < 0 {
		t.Fatal("delivered message must have a latency")
	}
	if (MessageStats{Status: StatusActive}).Latency() != -1 {
		t.Fatal("undelivered latency must be -1")
	}
	for _, p := range []Policy{ArbByID, ArbRandom, ArbAge, Policy(9)} {
		if p.String() == "" {
			t.Fatal("empty policy string")
		}
	}
	for _, s := range []Status{StatusWaiting, StatusActive, StatusDelivered, StatusDropped, Status(9)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

func TestMaxHorizonValidation(t *testing.T) {
	g := topology.NewLinearArray(3)
	if _, err := NewSim(g, Config{VirtualChannels: 1, MaxSteps: MaxHorizon + 1}); err == nil {
		t.Fatal("MaxSteps beyond MaxHorizon must be rejected")
	}
	si, err := NewSim(g, Config{VirtualChannels: 1, MaxSteps: 1024})
	if err != nil {
		t.Fatal(err)
	}
	route := message.ShortestPathRouter(g)
	msg := message.Message{Src: 0, Dst: 2, Length: 2, Path: route(0, 2)}
	if _, err := si.Inject(msg, MaxHorizon+1); err == nil ||
		!strings.Contains(err.Error(), "MaxHorizon") {
		t.Fatalf("release beyond MaxHorizon: err = %v", err)
	}
}

// TestPendingWindowCompaction drives the pending list through enough
// admit/insert cycles to force the compaction path: a small standing
// population with far-future releases keeps the window non-empty while
// the head advances through the backing array.
func TestPendingWindowCompaction(t *testing.T) {
	g := topology.NewLinearArray(4)
	route := message.ShortestPathRouter(g)
	msg := message.Message{Src: 0, Dst: 3, Length: 1, Path: route(0, 3)}
	si, err := NewSim(g, Config{VirtualChannels: 1, MaxSteps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	far := 1 << 18 // anchor entry that keeps the window from emptying
	if _, err := si.Inject(msg, far); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := si.Inject(msg, si.Now()+1); err != nil {
			t.Fatal(err)
		}
		if err := si.StepTo(si.Now() + 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := si.StepTo(far + 64); err != nil {
		t.Fatal(err)
	}
	if si.Active() != 0 {
		t.Fatalf("%d messages still active", si.Active())
	}
	if si.Delivered() != 2001 {
		t.Fatalf("delivered %d, want 2001", si.Delivered())
	}
}

// TestArenaLargeAlloc covers the arena's corners: a buffer larger than all
// the storage so far is still contiguous, reset reuses the storage from the
// front, and a recycled buffer goes back to the freelist at its whole
// capacity however little of it its last worm used.
func TestArenaLargeAlloc(t *testing.T) {
	var a i32Arena
	small := a.alloc(8)
	big := a.alloc(1<<16 + 100)
	if small != 0 || big != 8 || len(a.buf) != 8+1<<16+100 {
		t.Fatalf("alloc offsets %d, %d over %d elements", small, big, len(a.buf))
	}
	base := &a.buf[0]
	a.reset()
	if again := a.alloc(8); again != 0 || &a.buf[0] != base {
		t.Fatal("reset must reuse the storage from the front")
	}

	si, err := NewSim(topology.NewLinearArray(3), Config{VirtualChannels: 1, MaxSteps: 64})
	if err != nil {
		t.Fatal(err)
	}
	if off := si.newBuf(0); off != 0 {
		t.Fatalf("empty buffer at offset %d, want 0", off)
	}
	w := worm{off: si.newBuf(10)}
	si.freeBuf(&w)
	w = worm{off: si.newBuf(4)}
	if len(si.bufFree) != 0 {
		t.Fatalf("the 10-element buffer was not reused for 4: freelist %v", si.bufFree)
	}
	si.freeBuf(&w)
	empty := worm{off: si.newBuf(0)}
	si.freeBuf(&empty)
	if len(si.bufFree) != 1 || si.bufFree[0].cap != 10 || w.off != -1 || empty.off != -1 {
		t.Fatalf("freelist %v after freeing the reused buffer and an empty one, want one 10-element span", si.bufFree)
	}
}
