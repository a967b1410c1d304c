package enum_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// text is what the three wire enumerations share.
type text interface {
	fmt.Stringer
	MarshalText() ([]byte, error)
}

// TestEnumTextRoundTrip: every Policy/Process/Pattern value marshals as
// its String() form and unmarshals from it, with or without the hyphen;
// the empty string is the default; an unknown spelling is an error that
// names the value and lists what is accepted.
func TestEnumTextRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		kind   string
		values []text
		next   text // the first value past the list: it must have no name
		parse  func(string) (text, error)
	}{
		{"arbitration", []text{vcsim.ArbByID, vcsim.ArbRandom, vcsim.ArbAge}, vcsim.Policy(3), func(s string) (text, error) {
			var p vcsim.Policy
			err := p.UnmarshalText([]byte(s))
			return p, err
		}},
		{"process", []text{traffic.Bernoulli, traffic.Poisson, traffic.OnOff}, traffic.Process(3), func(s string) (text, error) {
			var p traffic.Process
			err := p.UnmarshalText([]byte(s))
			return p, err
		}},
		{"pattern", []text{traffic.Uniform, traffic.Transpose, traffic.BitReverse, traffic.Hotspot}, traffic.Pattern(4), func(s string) (text, error) {
			var p traffic.Pattern
			err := p.UnmarshalText([]byte(s))
			return p, err
		}},
	} {
		var names []string
		for _, v := range tc.values {
			name := v.String()
			names = append(names, name)
			if strings.Contains(name, "(") {
				t.Errorf("%s: value %d has no name: %s", tc.kind, v, name)
			}
			if blob, err := v.MarshalText(); err != nil || string(blob) != name {
				t.Errorf("%s %s: MarshalText = %q, %v", tc.kind, name, blob, err)
			}
			for _, spelling := range []string{name, strings.ReplaceAll(name, "-", "")} {
				if got, err := tc.parse(spelling); err != nil || got != v {
					t.Errorf("%s: %q parsed to %v, %v; want %v", tc.kind, spelling, got, err, v)
				}
			}
		}
		if got, err := tc.parse(""); err != nil || got != tc.values[0] {
			t.Errorf("%s: the empty spelling parsed to %v, %v; want the default %v", tc.kind, got, err, tc.values[0])
		}
		// The list above is all of them: a value added to the type must be
		// added here, where a `last` bound that lags it fails the round trip.
		if name := tc.next.String(); !strings.Contains(name, "(") {
			t.Errorf("%s: value %q is not in this test's list", tc.kind, name)
		}
		_, err := tc.parse("fifo")
		if err == nil {
			t.Fatalf("%s: \"fifo\" parsed", tc.kind)
		}
		for _, want := range append(names, `"fifo"`, tc.kind) {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %s", tc.kind, err, want)
			}
		}
	}
}

// TestEnumJSON: inside a struct the values travel as JSON strings, and a
// JSON number — what encoding/json wrote for them before they had a text
// form — is refused rather than reinterpreted.
func TestEnumJSON(t *testing.T) {
	type row struct {
		A vcsim.Policy    `json:"a"`
		P traffic.Process `json:"p,omitempty"`
		S traffic.Pattern `json:"s"`
	}
	blob, err := json.Marshal(row{A: vcsim.ArbAge, S: traffic.BitReverse})
	if err != nil || string(blob) != `{"a":"age","s":"bit-reverse"}` {
		t.Fatalf("Marshal = %s, %v", blob, err)
	}
	var back row
	if err := json.Unmarshal([]byte(`{"a":"byid","p":"onoff","s":"bitreverse"}`), &back); err != nil ||
		back != (row{A: vcsim.ArbByID, P: traffic.OnOff, S: traffic.BitReverse}) {
		t.Fatalf("Unmarshal = %+v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"a":2}`), &back); err == nil {
		t.Fatal("a JSON number unmarshalled into a Policy")
	}
}
