package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"wormhole/internal/telemetry"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestSummariesGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-topo", "butterfly", "-n", "8"},
			"butterfly: 32 nodes, 48 edges, max degree 2, DAG=true, diameter=3\n"},
		{[]string{"-topo", "mesh", "-n", "4"},
			"mesh: 16 nodes, 48 edges, max degree 4, DAG=false, diameter=6\n"},
		{[]string{"-topo", "linear", "-n", "5"},
			"linear: 5 nodes, 8 edges, max degree 2, DAG=false, diameter=4\n"},
	} {
		out, _, code := runCLI(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit code %d", tc.args, code)
		}
		if out != tc.want {
			t.Errorf("%v:\n got %q\nwant %q", tc.args, out, tc.want)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	out, _, code := runCLI(t, "-topo", "butterfly", "-n", "4", "-dot")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.HasPrefix(out, "digraph \"butterfly\" {") || !strings.Contains(out, "->") {
		t.Errorf("not a DOT digraph:\n%.200s", out)
	}
}

func TestAdversarySummary(t *testing.T) {
	out, _, code := runCLI(t, "-topo", "adversary", "-b", "2", "-d", "16", "-c", "6")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "adversary: M'=") {
		t.Errorf("missing adversary construction summary:\n%s", out)
	}
}

// heatSnapshot writes a telemetry snapshot for an 8-edge topology
// (linear -n 5) with edge 2 the clear hot spot and returns its path.
func heatSnapshot(t *testing.T) string {
	t.Helper()
	m := telemetry.NewMetrics()
	m.EnsureEdges(8)
	for i := 0; i < 5; i++ {
		m.EdgeStall(telemetry.CtrStallLaneCredit, 2)
	}
	m.EdgeStall(telemetry.CtrStallLaneCredit, 6)
	m.EdgeOccupancy(2, 1, 4)
	m.EdgeOccupancy(2, 0, 8) // integral 4 over horizon 8 → mean 0.5
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := telemetry.WriteSnapshotFile(path, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHeatmapTableGolden(t *testing.T) {
	out, _, code := runCLI(t, "-topo", "linear", "-n", "5", "-heatmap", heatSnapshot(t), "-top", "2")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	const want = `linear: hottest edges by stalls (of 8)
  edge  tail>head              stalls   occ_mean
     2  1>2                         5     0.5000
     6  3>4                         1     0.0000
`
	if out != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

func TestHeatmapDOTOverlay(t *testing.T) {
	out, _, code := runCLI(t, "-topo", "linear", "-n", "5", "-heatmap", heatSnapshot(t), "-dot")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	// Edge 2 (1→2) carries the max stall count: full-red, max penwidth.
	if !strings.Contains(out, `n1 -> n2 [color="#d73027" penwidth=3.00];`) {
		t.Errorf("hottest edge not rendered full-red:\n%s", out)
	}
	// Edge 0 (0→1) recorded nothing: bare edge statement.
	if !strings.Contains(out, "n0 -> n1;\n") {
		t.Errorf("cold edge should stay unstyled:\n%s", out)
	}
}

func TestHeatmapOccupancyMetric(t *testing.T) {
	out, _, code := runCLI(t, "-topo", "linear", "-n", "5",
		"-heatmap", heatSnapshot(t), "-metric", "occupancy", "-top", "1")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "hottest edges by occupancy") || !strings.Contains(out, "\n     2  ") {
		t.Errorf("occupancy ranking should lead with edge 2:\n%s", out)
	}
}

func TestHeatmapEdgeCountMismatch(t *testing.T) {
	_, stderr, code := runCLI(t, "-topo", "mesh", "-n", "4", "-heatmap", heatSnapshot(t))
	if code != 2 || !strings.Contains(stderr, "snapshot covers 8 edges") {
		t.Errorf("code=%d stderr=%q, want exit 2 with edge-count mismatch", code, stderr)
	}
}

func TestHeatmapUnknownMetric(t *testing.T) {
	_, stderr, code := runCLI(t, "-topo", "linear", "-n", "5", "-heatmap", heatSnapshot(t), "-metric", "bogus")
	if code != 2 || !strings.Contains(stderr, "unknown metric") {
		t.Errorf("code=%d stderr=%q, want exit 2 with unknown-metric error", code, stderr)
	}
}

func TestUnknownTopologyFails(t *testing.T) {
	_, stderr, code := runCLI(t, "-topo", "bogus")
	if code != 2 || !strings.Contains(stderr, "unknown topology") {
		t.Errorf("code=%d stderr=%q, want exit 2 with unknown-topology error", code, stderr)
	}
}

// TestBadFlagValuesExitTwo: a size the topology cannot be built at, or a
// negative -top, is a usage error on one line — each of these used to
// dump a goroutine trace (a constructor's panic, or a slice bound).
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "butterfly", "-n", "7"},
		{"-topo", "twopass", "-n", "3"},
		{"-topo", "mesh", "-n", "0"},
		{"-topo", "torus", "-n", "1"},
		{"-topo", "hypercube", "-n", "12"},
		{"-topo", "linear", "-n", "0"},
		{"-topo", "adversary", "-b", "0"},
		{"-topo", "adversary", "-d", "0"},
		{"-topo", "linear", "-n", "5", "-heatmap", heatSnapshot(t), "-top", "-1"},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 ||
			!strings.HasPrefix(stderr, "netviz: ") || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: code=%d stdout=%q stderr=%q, want exit 2 with one netviz: line", args, code, stdout, stderr)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	_, stderr, code := runCLI(t, "-h")
	if code != 0 || !strings.Contains(stderr, "Usage") {
		t.Errorf("-h: code=%d stderr=%q, want exit 0 with usage text", code, stderr)
	}
}
