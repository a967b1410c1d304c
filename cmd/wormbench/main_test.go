package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"wormhole/internal/core"
	"wormhole/internal/stats"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// TestBadInvocations: an experiment that does not exist or cannot run at
// the requested scale is one line on stderr and exit 1, before anything
// runs; no mode at all is the usage text and exit 2.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "T99"},
		{"-run", "T15", "-scale", "100"},
		{"-run", "T15", "-scale", "1073741824"},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "wormbench: ") {
			t.Errorf("%v: code=%d stdout=%q stderr=%q, want exit 1 with one wormbench: line", args, code, stdout, stderr)
		}
	}
	stdout, stderr, code := runCLI(t)
	if code != 2 || stdout != "" || !strings.Contains(stderr, "Usage of wormbench") {
		t.Errorf("no mode: code=%d stdout=%q stderr=%q, want exit 2 with the usage text", code, stdout, stderr)
	}
}

func TestListNamesEveryExperiment(t *testing.T) {
	stdout, _, code := runCLI(t, "-list")
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if code != 0 || len(lines) != 23 {
		t.Fatalf("-list: code=%d, %d lines, want the 23 experiments", code, len(lines))
	}
	for i, e := range core.Experiments() {
		if !strings.HasPrefix(lines[i], e.ID+" ") {
			t.Errorf("line %d is %q, want experiment %s", i, lines[i], e.ID)
		}
	}
}

// TestCSVIsTheLibraryRendering: -csv stdout is the T1–T16 byte-identity
// contract (the daemon and benchmark/ diff against it), so it must be
// exactly stats.WriteTablesCSV over core.Run — no banner, no timing line.
func TestCSVIsTheLibraryRendering(t *testing.T) {
	tables, err := core.Run(context.Background(), "F1", core.Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := stats.WriteTablesCSV(&want, tables); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t, "-run", "F1", "-quick", "-csv")
	if code != 0 || stderr != "" || stdout != want.String() {
		t.Errorf("-run F1 -quick -csv: code=%d stderr=%q\n got %q\nwant %q", code, stderr, stdout, want.String())
	}
}
