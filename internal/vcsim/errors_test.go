package vcsim

import (
	"errors"
	"reflect"
	"testing"
)

// RunChecked is the service-facing front end: workload validation must
// come back as the typed error family, never a panic, and a valid
// workload must produce exactly what Run produces.
func TestRunCheckedTypedErrors(t *testing.T) {
	set := lineSet(t, 3, 4, 5)
	good := Config{VirtualChannels: 2, CheckInvariants: true}

	res, err := RunChecked(set, nil, good)
	if err != nil {
		t.Fatal(err)
	}
	if want := Run(set, nil, good); !reflect.DeepEqual(res, want) {
		t.Error("RunChecked result diverges from Run")
	}

	cases := []struct {
		name    string
		release []int
		cfg     Config
		want    error
	}{
		{"no lanes", nil, Config{VirtualChannels: 0}, ErrBadConfig},
		{"bad depth", nil, Config{VirtualChannels: 2, LaneDepth: -1}, ErrBadConfig},
		{"release count", []int{1}, good, ErrBadMessage},
		{"negative release", []int{0, -1, 0}, good, ErrBadMessage},
		{"release over horizon", []int{0, MaxHorizon + 1, 0}, good, ErrOverHorizon},
	}
	for _, tc := range cases {
		if _, err := RunChecked(set, tc.release, tc.cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
