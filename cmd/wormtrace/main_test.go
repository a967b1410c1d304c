package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Golden-output smoke tests: every scenario is fully deterministic, so
// the rendered space-time diagram is pinned exactly where stable and by
// key lines elsewhere.

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestLineScenarioGolden(t *testing.T) {
	out, _, code := runCLI(t, "-scenario", "line", "-msgs", "2", "-span", "3", "-l", "2", "-b", "1")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	const want = `scenario=line msgs=2 B=1 L=2: steps=7 delivered=2 dropped=0 stalls=3 deadlocked=false

     time 0..7 (one column per flit step)
0>1  .aa.bb..
1>2  ..aa.bb.
2>3  ........
worms: a=0(delivered@4), b=1(delivered@7)
`
	if out != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

func TestRingDeadlockScenario(t *testing.T) {
	out, _, code := runCLI(t, "-scenario", "ring", "-msgs", "2", "-b", "1", "-n", "6")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "deadlocked=true") {
		t.Errorf("B=1 ring should deadlock; output:\n%s", out)
	}
	out, _, code = runCLI(t, "-scenario", "ring", "-msgs", "2", "-b", "2", "-n", "6")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "deadlocked=false") || !strings.Contains(out, "delivered=2") {
		t.Errorf("B=2 ring should deliver both worms; output:\n%s", out)
	}
}

func TestButterflyScenarioSmoke(t *testing.T) {
	out, _, code := runCLI(t, "-scenario", "butterfly", "-msgs", "4", "-n", "8", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "scenario=butterfly msgs=4") || !strings.Contains(out, "worms:") {
		t.Errorf("missing summary or trace body:\n%s", out)
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	_, stderr, code := runCLI(t, "-scenario", "bogus")
	if code != 2 || !strings.Contains(stderr, "unknown scenario") {
		t.Errorf("code=%d stderr=%q, want exit 2 with unknown-scenario error", code, stderr)
	}
}

// TestBadFlagValuesExitTwo: a value the scenario builders or the
// simulator would reject is caught after parsing and reported in one
// line with exit code 2 — these all used to reach a panic (or makeslice)
// and die with a goroutine dump.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "butterfly", "-n", "6"},
		{"-scenario", "butterfly", "-n", "0"},
		{"-scenario", "ring", "-n", "1"},
		{"-msgs", "-1"},
		{"-scenario", "ring", "-msgs", "-1"},
		{"-l", "0"},
		{"-b", "0"},
		{"-span", "-1"},
		{"-d", "-2", "-format", "chrome"},
		{"-d", "0"},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 ||
			!strings.HasPrefix(stderr, "wormtrace: ") || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: code=%d stdout=%q stderr=%q, want exit 2 with one wormtrace: line", args, code, stdout, stderr)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	_, stderr, code := runCLI(t, "-h")
	if code != 0 || !strings.Contains(stderr, "Usage") {
		t.Errorf("-h: code=%d stderr=%q, want exit 0 with usage text", code, stderr)
	}
}

func TestChromeFormatGolden(t *testing.T) {
	out, _, code := runCLI(t, "-scenario", "line", "-msgs", "1", "-span", "2", "-l", "2", "-b", "1", "-format", "chrome")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Ts   int    `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
	}
	// One worm: one B (inject) closed by one E (deliver), plus metadata
	// records and advance/credit instants.
	if phases["B"] != 1 || phases["E"] != 1 {
		t.Errorf("want exactly one B/E slice pair, got phases %v", phases)
	}
	if phases["M"] == 0 || phases["i"] == 0 {
		t.Errorf("missing metadata or instant events: %v", phases)
	}
}

func TestChromeFormatHandlesDeepEngine(t *testing.T) {
	out, _, code := runCLI(t, "-scenario", "line", "-msgs", "3", "-span", "4", "-l", "4", "-b", "1", "-d", "3", "-format", "chrome")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !json.Valid([]byte(out)) || !strings.Contains(out, `"ph":"B"`) {
		t.Errorf("deep-engine chrome trace invalid or empty:\n%.300s", out)
	}
}

func TestASCIIRejectsDeepEngine(t *testing.T) {
	for _, extra := range [][]string{{"-d", "2"}, {"-shared"}} {
		args := append([]string{"-scenario", "line", "-msgs", "2"}, extra...)
		_, stderr, code := runCLI(t, args...)
		if code != 2 || !strings.Contains(stderr, "deep-engine") {
			t.Errorf("%v: code=%d stderr=%q, want exit 2 with deep-engine rejection", extra, code, stderr)
		}
	}
}

func TestUnknownFormatFails(t *testing.T) {
	_, stderr, code := runCLI(t, "-format", "bogus")
	if code != 2 || !strings.Contains(stderr, "unknown format") {
		t.Errorf("code=%d stderr=%q, want exit 2 with unknown-format error", code, stderr)
	}
}
