package wormhole_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceKept is the allow-list of TestInternalSurfaceHasCallers: exported
// functions under internal/ that no non-test file names, each with the
// reason it stays (ROADMAP item 8's rule: a test of other behaviour uses
// it as oracle or fixture). The next orphan is deleted, unexported, or
// added here with its reason typed next to its name.
var surfaceKept = map[string]string{
	"internal/baseline.VerifyLMR":              "oracle: lmr_test.go re-checks every BuildLMR schedule with it",
	"internal/graph.Graph.AddNodes":            "fixture: six packages' tests build their hand-made graphs with it",
	"internal/graph.Graph.FindEdge":            "oracle: topology/route_test.go rebuilds every arithmetic route by graph search",
	"internal/graph.Path.Nodes":                "oracle: topology's tests compare routes as node sequences",
	"internal/snap/snaptest.Mutate":            "fixture: the one blob mutator behind FuzzReader, FuzzRestoreSim and FuzzRestoreRunner",
	"internal/stats.Table.NumRows":             "oracle: core's TestAllExperimentsRunQuick requires every table non-empty",
	"internal/telemetry.Metrics.MarshalBinary": "fixture: the []byte twin of UnmarshalBinary; codec_test.go builds its blobs with it",
	"internal/topology.Butterfly.Level":        "fixture: vcsim's lane-implied tests pick their edges by level",
	"internal/topology.Mesh.Coord":             "oracle: route_test.go walks dimension-order routes coordinate by coordinate",
	"internal/trace.Recorder.OccupancyAt":      "oracle: the structured form of what Render draws; trace_test.go checks the replay through it",
	"internal/vcsim.Result.DeliveredIDs":       "oracle: butterfly's lockstep engine is checked against the flit-level survivor set",
	"internal/wormclient.WithJitterSeed":       "fixture: cmd/wormholed's chaos e2e pins the client's backoff with it",
}

// implicitlyCalled are method names the standard library calls through an
// interface, so no file needs to name them.
var implicitlyCalled = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "Read": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestInternalSurfaceHasCallers fails on an exported function or method
// declared under internal/ (outside lint/, whose analyzers cmd/wormvet
// reaches through a registry and whose testdata is fixtures) that no
// non-test Go file in the tree — benchmark/, cmd/, examples/ and the root
// façade included — names, other than by declaring it. The match is by
// identifier, not by type, so it can miss an orphan that shares its name
// with a live function but cannot raise a false alarm. It keeps the
// surface audit that closed ROADMAP item 8 from silently regrowing.
func TestInternalSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	named := map[string]bool{} // identifiers some non-test file uses
	var declared []string      // exported funcs under audit, as dir.[Type.]Name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata" || name == "bin") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		audited := strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "internal/lint")
		declNames := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if audited && fn.Name.IsExported() && !implicitlyCalled[fn.Name.Name] {
				declared = append(declared, dir+"."+receiver(fn)+fn.Name.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	sort.Strings(declared)
	orphan := map[string]bool{}
	for _, key := range declared {
		if named[key[strings.LastIndexByte(key, '.')+1:]] {
			continue
		}
		orphan[key] = true
		if _, ok := surfaceKept[key]; !ok {
			t.Errorf("%s is exported but no non-test file names it: delete it, unexport it, or add it to surfaceKept with the reason it stays", key)
		}
	}
	for key := range surfaceKept {
		if !orphan[key] {
			t.Errorf("surfaceKept lists %s, which is gone or has a caller now: drop the entry", key)
		}
	}
}

// receiver renders a method's receiver type as "Type.", "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
