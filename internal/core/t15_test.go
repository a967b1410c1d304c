package core

import (
	"testing"
)

// TestT15QuickShapes sanity-checks the parallel scale study at CI scale:
// the quick sweep keeps the full 1024-input butterfly, every curve point
// injects traffic, and the overloaded points carry the standing backlog
// the experiment exists to exercise.
func TestT15QuickShapes(t *testing.T) {
	rows := T15OpenLoop(quickCfg)
	p := t15Scale(quickCfg)
	if want := len(p.bs) * len(p.rates); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.N != 1024 {
			t.Errorf("quick row ran n=%d; T15 must keep the full network", r.N)
		}
		if r.Messages == 0 {
			t.Errorf("B=%d rate=%g: no messages injected", r.B, r.Offered)
		}
		if r.Backlog < 0 {
			t.Errorf("B=%d rate=%g: negative backlog %d", r.B, r.Offered, r.Backlog)
		}
	}
}

// TestT15ScaleValidation pins the -scale guard: only power-of-two
// butterflies at least 256 wide are meaningful scale overrides.
func TestT15ScaleValidation(t *testing.T) {
	for _, bad := range []int{3, 100, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %d: expected panic", bad)
				}
			}()
			t15Scale(Config{Scale: bad})
		}()
	}
	if p := t15Scale(Config{Scale: 2048}); p.n != 2048 {
		t.Errorf("scale 2048 gave n=%d", p.n)
	}
}
