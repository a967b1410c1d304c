package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"wormhole/internal/lint/lintkit"
)

// DeterminismAnalyzer flags the constructs that can leak scheduling or
// runtime nondeterminism into experiment output inside the simulator
// packages:
//
//   - `range` over a map: iteration order is randomized per run. Either
//     iterate a sorted key slice, or — when the loop is provably
//     order-insensitive (e.g. the keys are collected and sorted
//     immediately below) — annotate //wormvet:allow determinism with a
//     reason.
//   - importing math/rand or math/rand/v2: the global source is seeded
//     per-process; all randomness must come from internal/rng, whose
//     streams are seeded, splittable, and replay-identical.
//   - time.Now / time.Since: wall-clock reads make output depend on the
//     host. (benchmark/ and the CLIs keep them — they time the
//     harness, not the simulation — and sit outside the scope list.)
//
// This is the static face of the differential replay oracle: the class
// of cross-goroutine determinism bugs a job fan-out can meet (map-order
// fanout, stray rng) is caught here before any fuzzer could.
var DeterminismAnalyzer = &lintkit.Analyzer{
	Name: "determinism",
	Doc:  "flag map-order iteration, math/rand, and wall-clock reads in simulator packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *lintkit.Pass) error {
	if !inSimScope(pass) || pass.Pkg.Path() == "wormhole/internal/rng" {
		return nil
	}
	for _, f := range prodFiles(pass) {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s: per-process global randomness breaks replay; use internal/rng sources", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypesInfo.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"range over map %s: iteration order is nondeterministic; iterate sorted keys or annotate //wormvet:allow determinism", exprString(n.X))
				}
			case *ast.SelectorExpr:
				if fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func); ok {
					if full := fn.FullName(); full == "time.Now" || full == "time.Since" {
						pass.Reportf(n.Pos(),
							"%s reads the wall clock: simulation results must not depend on host time", full)
					}
				}
			}
			return true
		})
	}
	return nil
}

// exprString renders an expression for diagnostics, compacted.
func exprString(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return strings.ReplaceAll(s, "\n", " ")
}
