package wormhole_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
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
	named := map[string]bool{} // identifiers some non-test file uses
	var declared []string      // exported funcs under audit, as dir.[Type.]Name
	for _, src := range parseTree(t) {
		declNames := map[*ast.Ident]bool{}
		for _, decl := range src.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if src.audited() && fn.Name.IsExported() && !implicitlyCalled[fn.Name.Name] {
				declared = append(declared, src.dir+"."+receiver(fn)+fn.Name.Name)
			}
		}
		ast.Inspect(src.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				named[id.Name] = true
			}
			return true
		})
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

// source is one parsed non-test Go file of the tree.
type source struct {
	path, dir string // slash-separated, relative to the repo root
	file      *ast.File
}

// audited reports whether the file's declarations are under audit:
// internal/, outside lint/ (whose analyzers cmd/wormvet reaches through a
// registry and whose testdata is fixtures).
func (s source) audited() bool {
	return strings.HasPrefix(s.dir, "internal/") && !strings.HasPrefix(s.dir, "internal/lint")
}

// parseTree parses every non-test Go file in the tree — benchmark/, cmd/,
// examples/ and the root façade included.
func parseTree(t *testing.T) []source {
	t.Helper()
	fset := token.NewFileSet()
	var out []source
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
		path = filepath.ToSlash(path)
		out = append(out, source{path: path, dir: filepath.ToSlash(filepath.Dir(path)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// optionsKept is the allow-list of TestOptionFieldsHaveSetters: option
// fields no production file sets and no wire carries, each with the reason
// it stays. All of it is safety code — a check, a reference oracle, the
// axis of a differential suite — which the options rule never targets.
var optionsKept = map[string]string{
	"internal/vcsim.Config.CheckInvariants": "check: the per-step invariant audit every differential and fuzz suite runs under",
	"internal/vcsim.Config.ParkStreak":      "oracle axis: the park-hysteresis suite proves results park-timing-invariant by varying it",
	"internal/traffic.Config.NaiveScan":     "oracle: selects the retained naive stepper the open-loop differentials compare the wakeup engine against",
	"internal/traffic.Config.Trace":         "hook: README \"Event tracing\" tells a reader to attach a telemetry.Trace ring to a traffic config; forwarded to vcsim.Config.Trace",
}

// optionStruct matches the struct types whose exported fields are options.
var optionStruct = regexp.MustCompile(`(Config|Options|Params|Policy)$`)

// TestOptionFieldsHaveSetters is the options rule as a gate: an exported
// field of an internal/ struct named *Config, *Options, *Params or *Policy
// must be set — keyed literal or `x.F =` — by a non-test file other than
// the one declaring it, or be settable on the wire (a json tag other than
// "-"), or sit in optionsKept with its reason. A field only its own
// defaulting code and tests touch is a switch with one value: it becomes
// the constant it already is. Literals are matched by their written type
// (through the file's imports), assignments by field name among the files
// that can see the struct, so the gate can miss a dead field that shares
// its name with a live one but cannot raise a false alarm.
func TestOptionFieldsHaveSetters(t *testing.T) {
	type field struct{ dir, typ, name, file string } // file declares it
	var fields []field
	literalSet := map[string]map[string]bool{} // dir.Type.Field → files with a keyed literal
	assigned := map[string]map[string]bool{}   // dir.Field → files assigning some x.Field
	mark := func(m map[string]map[string]bool, key, file string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][file] = true
	}
	for _, src := range parseTree(t) {
		// The internal/ packages this file can see, by the name it uses.
		sees := map[string]string{"": src.dir}
		for _, imp := range src.file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if dir, ok := strings.CutPrefix(path, "wormhole/"); ok {
				name := dir[strings.LastIndexByte(dir, '/')+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				sees[name] = dir
			}
		}
		// typeKey renders a literal's written type as dir.Type, "" if it
		// is not a plain or package-qualified name.
		typeKey := func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return src.dir + "." + e.Name
			case *ast.SelectorExpr:
				if pkg, ok := e.X.(*ast.Ident); ok && sees[pkg.Name] != "" {
					return sees[pkg.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		var literal func(lit *ast.CompositeLit, elided string)
		literal = func(lit *ast.CompositeLit, elided string) {
			key, elem := elided, ""
			switch typ := lit.Type.(type) {
			case nil:
			case *ast.ArrayType:
				key, elem = "", typeKey(typ.Elt)
			case *ast.MapType:
				key, elem = "", typeKey(typ.Value)
			default:
				key = typeKey(typ)
			}
			for _, el := range lit.Elts {
				kv, _ := el.(*ast.KeyValueExpr)
				if kv != nil {
					if name, ok := kv.Key.(*ast.Ident); ok && key != "" {
						mark(literalSet, key+"."+name.Name, src.path)
					}
					el = kv.Value
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil {
					literal(inner, elem)
				}
			}
		}
		ast.Inspect(src.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !src.audited() || !optionStruct.MatchString(n.Name.Name) {
					break
				}
				for _, f := range st.Fields.List {
					if f.Tag != nil {
						tag, _ := strconv.Unquote(f.Tag.Value)
						if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name != "" && name != "-" {
							continue
						}
					}
					for _, name := range f.Names {
						if name.IsExported() {
							fields = append(fields, field{src.dir, n.Name.Name, name.Name, src.path})
						}
					}
				}
			case *ast.CompositeLit:
				if n.Type != nil {
					literal(n, "")
				}
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN {
					break // x.F += v adjusts a value someone else set
				}
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						for _, dir := range sees {
							mark(assigned, dir+"."+sel.Sel.Name, src.path)
						}
					}
				}
			}
			return true
		})
	}

	unset := map[string]bool{}
	for _, f := range fields {
		key := f.dir + "." + f.typ + "." + f.name
		setters := 0
		for _, files := range []map[string]bool{literalSet[key], assigned[f.dir+"."+f.name]} {
			for file := range files {
				if file != f.file {
					setters++
				}
			}
		}
		if setters > 0 {
			continue
		}
		unset[key] = true
		if _, ok := optionsKept[key]; !ok {
			t.Errorf("%s is an option no production file sets: make it the constant it is, or add it to optionsKept with the reason it stays", key)
		}
	}
	for key := range optionsKept {
		if !unset[key] {
			t.Errorf("optionsKept lists %s, which is gone or has a setter now: drop the entry", key)
		}
	}
}
