package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"wormhole/internal/core"
	"wormhole/internal/stats"
	"wormhole/internal/telemetry"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// TestBadInvocations: an experiment that does not exist or cannot run at
// the requested scale or trial count (under -all, any one of them), or a
// -telemetry file that cannot be created, is
// one line on stderr and exit 1, before anything runs; no mode at all —
// -telemetry only modifies -run and -all — or a flag that is gone is the
// usage text and exit 2.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "T99"},
		{"-run", "T15", "-scale", "100"},
		{"-run", "T15", "-scale", "1073741824"},
		{"-all", "-quick", "-scale", "100"},
		{"-run", "T7", "-trials", "-1"},
		{"-run", "T15", "-telemetry", filepath.Join(t.TempDir(), "no", "such", "dir", "x.json")},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "wormbench: ") {
			t.Errorf("%v: code=%d stdout=%q stderr=%q, want exit 1 with one wormbench: line", args, code, stdout, stderr)
		}
	}
	for _, args := range [][]string{
		nil,
		{"-telemetry", filepath.Join(t.TempDir(), "f.json")},
		{"-http", "x"},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "Usage of wormbench") {
			t.Errorf("%v: code=%d stdout=%q stderr=%q, want exit 2 with the usage text", args, code, stdout, stderr)
		}
	}
}

// TestTelemetryModifiesRun: -telemetry on a -run leaves the tables alone
// and writes the aggregate snapshot of the simulators that ran.
func TestTelemetryModifiesRun(t *testing.T) {
	plain, _, _ := runCLI(t, "-run", "T12", "-quick", "-csv")
	path := filepath.Join(t.TempDir(), "snap.json")
	stdout, stderr, code := runCLI(t, "-run", "T12", "-quick", "-csv", "-telemetry", path)
	if code != 0 || stderr != "" || !strings.HasPrefix(stdout, plain) {
		t.Fatalf("-telemetry changed the run: code=%d stderr=%q", code, stderr)
	}
	snap, err := telemetry.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counter("steps") == 0 || len(snap.EdgeStalls) == 0 {
		t.Errorf("snapshot has %d steps and %d edge accumulators, want both non-zero", snap.Counter("steps"), len(snap.EdgeStalls))
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
