package wormhole_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesGolden builds every program under examples/ with one go
// build, runs each and byte-diffs its stdout against
// testdata/examples/<name>.golden. Every example is deterministic, so
// this is what defends the façade, internal/trace and the rendered
// space-time diagrams: a refactor that moves one character of
// examples/spacetime or examples/deadlock fails here. To re-record after
// a deliberate change: go run ./examples/<name> > testdata/examples/<name>.golden.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example binaries")
	}
	programs, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(programs) == 0 {
		t.Fatalf("no example programs found (err %v)", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, p := range programs {
		name := filepath.Base(filepath.Dir(p))
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout diverged from the golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
