package vcsim

import (
	"bytes"
	"errors"
	"testing"

	"wormhole/internal/message"
)

// batchErr loads a batch workload and returns the typed error the loader
// panicked with (nil for a valid workload).
func batchErr(t *testing.T, set *message.Set, release []int, cfg Config) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				t.Fatalf("batch loader panicked with a non-error: %v", r)
			}
		}
	}()
	newBatchSim(set, release, cfg)
	return nil
}

// One validator serves both ways in: whatever NewSim and Inject return as
// a typed error, the batch loader must panic with — same family, same
// classification — and a valid workload must load.
func TestValidationTypedErrors(t *testing.T) {
	set := lineSet(t, 3, 4, 5)
	good := Config{VirtualChannels: 2, CheckInvariants: true}
	if err := batchErr(t, set, nil, good); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		release []int
		cfg     Config
		want    error
	}{
		{"no lanes", nil, Config{VirtualChannels: 0}, ErrBadConfig},
		{"bad depth", nil, Config{VirtualChannels: 2, LaneDepth: -1}, ErrBadConfig},
		{"lanes over MaxLanes", nil, Config{VirtualChannels: MaxLanes + 1}, ErrBadConfig},
		{"lanes far over MaxLanes", nil, Config{VirtualChannels: 1 << 30, LaneDepth: 4}, ErrBadConfig},
		{"flit pool over 32 bits", nil, Config{VirtualChannels: MaxLanes, LaneDepth: MaxHorizon/MaxLanes + 1}, ErrBadConfig},
		{"horizon over MaxHorizon", nil, Config{VirtualChannels: 2, MaxSteps: MaxHorizon + 1}, ErrOverHorizon},
		{"release count", []int{1}, good, ErrBadMessage},
		{"negative release", []int{0, -1, 0}, good, ErrBadMessage},
		{"release over horizon", []int{0, MaxHorizon + 1, 0}, good, ErrOverHorizon},
	}
	for _, tc := range cases {
		if err := batchErr(t, set, tc.release, tc.cfg); !errors.Is(err, tc.want) {
			t.Errorf("batch %s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.release != nil && len(tc.release) != set.Len() {
			continue // a release list is a batch-only notion
		}
		// The incremental path sees the same config through NewSim and
		// the same releases through Inject.
		cfg := tc.cfg
		if cfg.MaxSteps == 0 {
			cfg.MaxSteps = 100
		}
		sim, err := NewSim(set.G, cfg)
		for i := 0; err == nil && i < len(tc.release); i++ {
			_, err = sim.Inject(set.Get(message.ID(i)), tc.release[i])
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("incremental %s: err = %v, want %v", tc.name, err, tc.want)
		}
		// RestoreSim holds the caller's Config to the same statement before
		// it reads a byte.
		if tc.release == nil {
			if _, err := RestoreSim(set.G, cfg, bytes.NewReader(nil)); !errors.Is(err, tc.want) {
				t.Errorf("restore %s: err = %v, want %v", tc.name, err, tc.want)
			}
		}
	}

	// Per-message rejections the batch path used to leave to message.Set:
	// a hand-built set reaches the same checks Inject applies.
	bad := message.NewSet(set.G)
	bad.Msgs = append(bad.Msgs, message.Message{Length: 0})
	if err := batchErr(t, bad, nil, good); !errors.Is(err, ErrBadMessage) {
		t.Errorf("batch zero-length message: err = %v, want ErrBadMessage", err)
	}
}
