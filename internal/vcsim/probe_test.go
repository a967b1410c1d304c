package vcsim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
)

// TestOccupancyProbeCeiling pins the step-end probe skip (Sim.probeOwed):
// once MaxOccupied stands at its ceiling — B lanes rigid, B·d flits deep —
// and no sink is attached, grants record nothing for the probe. On rigid
// B = 2 and on d = 2 static and shared lanes it checks that
//
//   - after the step the mark reaches the ceiling, a step with grants
//     leaves the grant-only list empty (the Metrics-attached twin's list
//     shows the grants were there);
//   - the twin, which keeps every probe, has the same Result after every
//     step;
//   - Reset turns probing back on: a one-message rerun reports 1;
//   - RestoreSim from a snapshot taken below the ceiling and from one
//     taken at it each resume to the uninterrupted Result.
func TestOccupancyProbeCeiling(t *testing.T) {
	// A hotspot on a 16-input butterfly: every message heads for output
	// 0, so lanes fill behind the congested output stage.
	bf := topology.NewButterfly(16)
	set := message.NewSet(bf.G)
	r := rng.New(41)
	releases := make([]int, 48)
	for i := range releases {
		src := r.Intn(16)
		set.Add(bf.Input(src), bf.Output(0), 4, bf.Route(src, 0))
		releases[i] = i / 4
	}
	for _, a := range []arch{{1, false}, {2, false}, {2, true}} {
		t.Run(fmt.Sprintf("d=%d/shared=%v", a.depth, a.shared), func(t *testing.T) {
			cfg := Config{VirtualChannels: 2, LaneDepth: a.depth, SharedPool: a.shared, MaxSteps: 1 << 12, CheckInvariants: true}
			ceiling := cfg.VirtualChannels * a.depth
			build := func(met *telemetry.Metrics) *Sim {
				c := cfg
				c.Metrics = met
				si, err := NewSim(set.G, c)
				if err != nil {
					t.Fatal(err)
				}
				for i, rel := range releases {
					if _, err := si.Inject(set.Get(message.ID(i)), rel); err != nil {
						t.Fatal(err)
					}
				}
				return si
			}
			snapshot := func(si *Sim) []byte {
				var b bytes.Buffer
				if err := si.Snapshot(&b); err != nil {
					t.Fatal(err)
				}
				return b.Bytes()
			}
			plain, twin := build(nil), build(telemetry.NewMetrics())
			if !plain.probeOwed {
				t.Fatal("a fresh Sim owes no probe")
			}
			var below, at []byte // snapshots: the last below the ceiling, the first at it
			grantSteps := 0
			for plain.Active() > 0 {
				if at == nil {
					below = snapshot(plain)
				} else {
					// Past the ceiling: an append would give the list a
					// backing array, so a nil list left nil saw none.
					plain.dirtyMax, twin.dirtyMax = nil, nil
				}
				errP, errT := plain.Step(), twin.Step()
				if (errP == nil) != (errT == nil) {
					t.Fatalf("step %d: errors %v and %v", plain.Now(), errP, errT)
				}
				got, want := plain.Result(), twin.Result()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: Result without sinks differs from the Metrics twin\nplain: %+v\n twin: %+v", plain.Now(), got, want)
				}
				switch {
				case at != nil:
					if cap(twin.dirtyMax) > 0 {
						grantSteps++
					}
					if cap(plain.dirtyMax) > 0 {
						t.Fatalf("step %d: grants went on the grant-only list past the ceiling", plain.Now())
					}
				case got.MaxOccupied == ceiling:
					if plain.probeOwed || !twin.probeOwed {
						t.Fatalf("step %d: at the ceiling, probeOwed is %v without sinks and %v with Metrics; want false and true",
							plain.Now(), plain.probeOwed, twin.probeOwed)
					}
					at = snapshot(plain)
				}
				if errP != nil {
					break
				}
			}
			if at == nil {
				t.Fatalf("MaxOccupied never reached its ceiling %d: %+v", ceiling, plain.Result())
			}
			if grantSteps == 0 {
				t.Fatal("no step past the ceiling granted a lane; the skip is untested")
			}
			final := plain.Result()
			if !final.AllDelivered() {
				t.Fatalf("the hotspot run did not deliver: %+v", final)
			}

			for _, c := range []struct {
				name string
				blob []byte
				owed bool
			}{{"below", below, true}, {"at", at, false}} {
				si, err := RestoreSim(set.G, cfg, bytes.NewReader(c.blob))
				if err != nil {
					t.Fatalf("restore %s the ceiling: %v", c.name, err)
				}
				if si.probeOwed != c.owed {
					t.Errorf("restored %s the ceiling: probeOwed %v, want %v", c.name, si.probeOwed, c.owed)
				}
				si.Drain()
				if got := si.Result(); !reflect.DeepEqual(got, final) {
					t.Errorf("restored %s the ceiling, the run diverged\n want: %+v\n  got: %+v", c.name, final, got)
				}
			}

			plain.Reset()
			one := set.Get(0)
			one.Length = 1
			if _, err := plain.Inject(one, 0); err != nil {
				t.Fatal(err)
			}
			plain.Drain()
			if got := plain.Result(); got.MaxOccupied != 1 || !got.AllDelivered() {
				t.Errorf("one-flit rerun after Reset: MaxOccupied %d (want 1), %+v", got.MaxOccupied, got)
			}
		})
	}
}
