// Package enum is the text form of the engine's small enumerations
// (vcsim.Policy, traffic.Process, traffic.Pattern): on the wire and in
// persisted job specs a value is spelled as its String() form, and
// parsing lives here once instead of once per type.
package enum

import (
	"fmt"
	"strings"
)

// Parse returns the value in [0, last] whose String() form is text.
// Hyphens are optional ("by-id" and "byid" both name vcsim.ArbByID —
// the hyphenless forms are what wormholed's wire used before it shared
// the engine's spellings), and the empty string is the zero value, the
// default of every enumeration parsed here. kind names the enumeration
// in the error, which lists the accepted spellings.
func Parse[T interface {
	~int8
	fmt.Stringer
}](kind, text string, last T) (T, error) {
	if text == "" {
		return 0, nil
	}
	names := make([]string, 0, int(last)+1)
	for v := T(0); v <= last; v++ {
		name := v.String()
		if text == name || text == strings.ReplaceAll(name, "-", "") {
			return v, nil
		}
		names = append(names, name)
	}
	return 0, fmt.Errorf("unknown %s %q (want %s; hyphens optional)", kind, text, strings.Join(names, ", "))
}
