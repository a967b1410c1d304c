package vcsim

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestHotLayout pins the two struct layouts the kernels' cache behaviour
// and the simulator's host memory were measured on. Neither is a
// correctness matter — the codec writes field by field — so nothing else
// would notice a field slipping out of place.
func TestHotLayout(t *testing.T) {
	if got := unsafe.Sizeof(edgeRec{}); got != 8 {
		t.Errorf("edgeRec is %d bytes, want 8: a lane event must touch one aligned word per edge "+
			"(sparse-wide wall_s: 8 bytes −13%%, 12 bytes −9%%, 32 bytes with crossings/flitFree/relFlit +10%%; see edgeRec)", got)
	}

	// A long-lived Sim keeps one worm per message ever injected, so its
	// size is host memory: 64 bytes of padding raised knee-deep's peak RSS
	// by 24.3 MB, ≈ 0.38 MB per byte (see worm).
	if got := unsafe.Sizeof(worm{}); got > 72 {
		t.Errorf("worm is %d bytes, want ≤ 72: every message ever injected keeps one, "+
			"≈ 0.38 MB of knee-deep peak RSS per byte (+24.3 MB at 64 bytes of padding)", got)
	}
	var pointerFree func(path string, typ reflect.Type)
	pointerFree = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				pointerFree(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			pointerFree(path+"[i]", typ.Elem())
		case reflect.Slice, reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: a pointer in worm makes every wormChunk a scanned allocation and "+
				"costs its header in every record, ≈ 0.38 MB of knee-deep peak RSS per byte; "+
				"put buffers in Sim.arena behind an int32 offset", path, typ.Kind())
		}
	}
	pointerFree("worm", reflect.TypeOf(worm{}))

	var w worm
	for _, f := range []struct {
		name string
		off  uintptr
	}{
		{"off", unsafe.Offsetof(w.off)},
		{"d", unsafe.Offsetof(w.d)},
		{"l", unsafe.Offsetof(w.l)},
		{"frontier", unsafe.Offsetof(w.frontier)},
		{"injectTime", unsafe.Offsetof(w.injectTime)},
		{"stalls", unsafe.Offsetof(w.stalls)},
		{"streak", unsafe.Offsetof(w.streak)},
		{"status", unsafe.Offsetof(w.status)},
		{"woken", unsafe.Offsetof(w.woken)},
	} {
		if f.off >= 32 {
			t.Errorf("worm.%s at offset %d, want < 32: every rigid advance attempt reads it, so it belongs "+
				"in the hot prefix, which on the 72-byte stride shares one cache line with the rest of "+
				"the prefix for five worms in eight", f.name, f.off)
		}
	}
}
