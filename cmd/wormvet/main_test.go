package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests drive the built binary end to end: protocol handshake modes,
// a clean run over real repo packages (exercising the cross-package
// facts chain), and a planted module where each analyzer must fire.

var wormvetBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wormvet-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	wormvetBin = filepath.Join(dir, "wormvet")
	if out, err := exec.Command("go", "build", "-o", wormvetBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building wormvet: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestVersionHandshake(t *testing.T) {
	out, err := exec.Command(wormvetBin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	// The go command derives the vet cache key from this line; it must
	// name the tool and embed a content hash so rebuilds invalidate.
	if !regexp.MustCompile(`^wormvet version [0-9a-f]{24}\n$`).Match(out) {
		t.Errorf("-V=full output %q, want 'wormvet version <24-hex>'", out)
	}
}

func TestFlagsHandshake(t *testing.T) {
	out, err := exec.Command(wormvetBin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Errorf("-flags output %q, want []", out)
	}
}

func TestHelpListsAnalyzers(t *testing.T) {
	out, err := exec.Command(wormvetBin, "-help").Output()
	if err != nil {
		t.Fatalf("-help: %v", err)
	}
	for _, name := range []string{"determinism", "hotalloc", "horizon", "keypack"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-help output missing analyzer %q:\n%s", name, out)
		}
	}
}

// moduleRoot resolves the repo root so vet runs see the real module.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", "{{.Dir}}", "wormhole").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	return strings.TrimSpace(string(out))
}

func TestCleanOnRepoPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over repo packages")
	}
	// The whole module, as CI vets it, so a finding anywhere fails tier-1
	// too. vcsim imports rng, whose //wormvet:nonalloc markers reach
	// vcsim's hotalloc pass only through the .vetx facts chain — a clean
	// exit proves the chain works, not just that the packages are clean.
	cmd := exec.Command("go", "vet", "-vettool="+wormvetBin, "./...")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool=wormvet reported findings on clean packages: %v\n%s", err, out)
	}
}

const plantedSrc = `// Package planted trips every wormvet analyzer once.
//
//wormvet:scope
package planted

import (
	_ "math/rand"
)

func order(m map[int]int) int {
	s := 0
	for k := range m {
		s += k
	}
	return s
}

//wormvet:hotpath
func hot(n int) []int {
	return make([]int, n)
}

func narrow(x int) int32 { return int32(x) }

func unpack(k uint64) int { return int(k >> 32) }
`

// plantModule materializes a standalone module with one finding per
// analyzer and returns its directory.
func plantModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module planted\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(plantedSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestFindingsOnPlantedModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet on a scratch module")
	}
	cmd := exec.Command("go", "vet", "-vettool="+wormvetBin, "./...")
	cmd.Dir = plantModule(t)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet exited 0 on a module with planted findings:\n%s", out)
	}
	for _, frag := range []string{
		"import of math/rand",
		"range over map m",
		"make allocates",
		"unguarded narrowing int32(x)",
		"manual 64-bit key (un)packing (shift by 32)",
	} {
		if !strings.Contains(string(out), frag) {
			t.Errorf("planted-module vet output missing %q:\n%s", frag, out)
		}
	}
	// Diagnostics must be positioned file:line:col for editors and CI
	// annotations.
	if !regexp.MustCompile(`planted\.go:\d+:\d+: `).Match(out) {
		t.Errorf("diagnostics lack file:line:col positions:\n%s", out)
	}
}

func TestStandaloneListMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet on a scratch module")
	}
	dir := plantModule(t)

	// Triage mode: findings printed, exit 0.
	list := exec.Command(wormvetBin, "-list", "./...")
	list.Dir = dir
	out, err := list.CombinedOutput()
	if err != nil {
		t.Errorf("wormvet -list exited nonzero: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "range over map") {
		t.Errorf("wormvet -list printed no findings:\n%s", out)
	}

	// Gate mode: same findings, exit 2.
	gate := exec.Command(wormvetBin, "./...")
	gate.Dir = dir
	if out, err := gate.CombinedOutput(); err == nil {
		t.Errorf("wormvet (gate mode) exited 0 on findings:\n%s", out)
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("wormvet gate-mode exit = %v, want exit status 2", err)
	}
}
