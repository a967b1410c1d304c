// Package lint holds the wormvet analyzer suite: four static checks
// that turn the repo's load-bearing dynamic guarantees — byte-identical
// deterministic replay and zero-alloc hot-path stepping — into
// compile-time-checked invariants. See README "Static analysis" for the
// catalogue and the marker/suppression grammar.
package lint

import (
	"go/ast"
	"strings"

	"wormhole/internal/lint/lintkit"
)

// Analyzers returns the full wormvet suite in reporting order.
func Analyzers() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		DeterminismAnalyzer,
		HotallocAnalyzer,
		HorizonAnalyzer,
		KeypackAnalyzer,
	}
}

// simScopePrefixes are the packages whose results feed the experiment
// tables, where replay determinism and the 32-bit time layout are
// contractual ("wormhole" matches the root package exactly, not the
// whole module). hotalloc is scoped by //wormvet:hotpath markers
// instead and runs everywhere.
var simScopePrefixes = []string{
	"wormhole/internal/vcsim",
	"wormhole/internal/traffic",
	"wormhole/internal/core",
	"wormhole/internal/schedule",
	"wormhole/internal/baseline",
	"wormhole/internal/telemetry",
	"wormhole/internal/snap",
}

// inSimScope reports whether the pass's package is one the
// simulator-scope analyzers (determinism, horizon, keypack) police: a
// known simulator/experiment package, or any package that opts in with a
// file-level //wormvet:scope directive (how the analysistest packages
// get in scope).
func inSimScope(pass *lintkit.Pass) bool {
	if pass.Directives().Scoped() {
		return true
	}
	path := pass.Pkg.Path()
	if path == "wormhole" {
		return true
	}
	for _, p := range simScopePrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// prodFiles filters out _test.go files: the scoped analyzers pin
// production simulator invariants; tests assert on the outputs and may
// use maps and narrowing freely (their own determinism is covered by
// the replay differentials they run).
func prodFiles(pass *lintkit.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// funcDecls lists every top-level function declaration, for guard
// searches and marker lookups.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}
