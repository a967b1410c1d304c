package vcsim

import (
	"testing"
	"unsafe"
)

// TestHotLayout pins the two struct layouts the kernels' cache behaviour
// was measured on. Neither is a correctness matter — the codec writes field
// by field — so nothing else would notice a field slipping out of place.
func TestHotLayout(t *testing.T) {
	if got := unsafe.Sizeof(edgeRec{}); got != 8 {
		t.Errorf("edgeRec is %d bytes, want 8: a lane event must touch one aligned word per edge "+
			"(sparse-wide wall_s: 8 bytes −13%%, 12 bytes −9%%, 32 bytes with crossings/flitFree/relFlit +10%%; see edgeRec)", got)
	}
	if got := unsafe.Sizeof(worm{}); got > 128 {
		t.Errorf("worm is %d bytes, want ≤ 128: two cache lines per worm in page-aligned chunks "+
			"(at 136 bytes peak RSS was 1.3–4.7 MB higher on every simulator workload; sparse-wide wall_s within 1%%)", got)
	}
	var w worm
	for _, f := range []struct {
		name string
		off  uintptr
	}{
		{"path", unsafe.Offsetof(w.path)},
		{"key", unsafe.Offsetof(w.key)},
		{"d", unsafe.Offsetof(w.d)},
		{"l", unsafe.Offsetof(w.l)},
		{"frontier", unsafe.Offsetof(w.frontier)},
		{"injectTime", unsafe.Offsetof(w.injectTime)},
		{"stalls", unsafe.Offsetof(w.stalls)},
		{"streak", unsafe.Offsetof(w.streak)},
		{"status", unsafe.Offsetof(w.status)},
	} {
		if f.off >= 64 {
			t.Errorf("worm.%s at offset %d, want < 64: every rigid advance attempt reads it, "+
				"so it belongs on the worm's first cache line", f.name, f.off)
		}
	}
}
