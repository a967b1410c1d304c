package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"wormhole/internal/lint/lintkit"
)

// HotallocAnalyzer makes the zero-alloc stepping contract — otherwise
// enforced only at test time by the testing.AllocsPerRun steady-state
// tests — a compile-time property of every function marked //wormvet:hotpath.
// Inside a marked function it flags the constructs that heap-allocate
// (or can):
//
//   - make / new, slice and map composite literals, &T{...}
//   - func literals (closure headers escape with their captures)
//   - go / defer statements
//   - string concatenation and string<->[]byte conversions
//   - conversions to interface types, explicit or implicit at call
//     arguments (boxing)
//   - append whose destination is not the value being appended to
//     (`dst = append(src, ...)` builds a new backing array; the
//     amortized-reuse idiom `buf = append(buf[:0], x)` is permitted —
//     steady-state growth is pinned at zero by the AllocsPerRun tests
//     and the escape-analysis harness)
//   - calls to functions not themselves marked //wormvet:hotpath or
//     //wormvet:nonalloc (cross-package callees resolve through
//     exported facts), dynamic calls through interfaces or function
//     values
//
// panic is permitted: it is terminal, and boxing its argument on the
// way out of a corrupted simulation is not a steady-state allocation.
// Cold paths inside hot functions (error returns, deadlock teardown)
// carry //wormvet:allow hotalloc -- reason at the call site.
//
// The static check is deliberately cross-checked dynamically: the
// escape-analysis harness test compiles the simulator with -gcflags=-m
// and fails on any heap-escape diagnostic landing inside a marked
// function (see escape_test.go), and the AllocsPerRun tests in vcsim,
// telemetry and traffic keep asserting the observed allocs/step.
var HotallocAnalyzer = &lintkit.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in //wormvet:hotpath functions",
	Run:  runHotalloc,
}

func runHotalloc(pass *lintkit.Pass) error {
	d := pass.Directives()
	// Export this package's marker sets so importers can trust calls
	// into it, and build the local trusted-callee set.
	hot := lintkit.MarkedFuncs(pass, "hotpath")
	nonalloc := lintkit.MarkedFuncs(pass, "nonalloc")
	if pass.ExportFacts != nil {
		pass.ExportFacts.Hotpath = append(pass.ExportFacts.Hotpath, hot...)
		pass.ExportFacts.Nonalloc = append(pass.ExportFacts.Nonalloc, nonalloc...)
	}
	local := &lintkit.Facts{Hotpath: hot, Nonalloc: nonalloc}

	for _, fd := range funcDecls(pass.Files) {
		if fd.Body == nil || !d.Marked(fd, "hotpath") {
			continue
		}
		c := &hotChecker{pass: pass, local: local, seenAppends: map[*ast.CallExpr]bool{}}
		c.checkFunc(fd)
	}
	return nil
}

// hotChecker walks one marked function; seenAppends marks append calls
// already judged by the assignment-form check so the generic call check
// doesn't re-flag them.
type hotChecker struct {
	pass        *lintkit.Pass
	local       *lintkit.Facts
	seenAppends map[*ast.CallExpr]bool
}

func (c *hotChecker) checkFunc(fd *ast.FuncDecl) {
	pass := c.pass
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hotpath %s: go statement allocates a goroutine", name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "hotpath %s: defer allocates its frame record", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hotpath %s: func literal may allocate its closure; hoist it or annotate //wormvet:allow hotalloc with the non-escape argument", name)
			return false // don't double-report the literal's body
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "hotpath %s: %s literal allocates; use construction-time scratch", name, typeKind(t))
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit {
					pass.Reportf(n.Pos(), "hotpath %s: &composite literal escapes to the heap", name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass, n.X) {
				pass.Reportf(n.Pos(), "hotpath %s: string concatenation allocates", name)
			}
		case *ast.AssignStmt:
			c.checkAssignAppend(name, n)
		case *ast.CallExpr:
			if isBuiltin(pass, n, "panic") {
				return false // terminal: whatever its argument costs is paid once
			}
			c.checkCall(name, n)
		}
		return true
	})
}

// checkAssignAppend blesses the amortized-reuse append idiom and flags
// the rest; appends outside assignment form fall through to checkCall.
func (c *hotChecker) checkAssignAppend(name string, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(c.pass, call, "append") || len(call.Args) == 0 {
			continue
		}
		c.seenAppends[call] = true
		if len(as.Lhs) == len(as.Rhs) && sameBase(as.Lhs[i], call.Args[0]) {
			continue
		}
		c.pass.Reportf(call.Pos(),
			"hotpath %s: append to a different destination builds a new backing array; use the self-append reuse idiom (dst = append(dst[:0], ...))", name)
	}
}

func (c *hotChecker) checkCall(name string, call *ast.CallExpr) {
	pass := c.pass
	// Type conversions: allocation-free except boxing and
	// string<->[]byte.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type.Underlying()) {
			pass.Reportf(call.Pos(), "hotpath %s: conversion to interface type %s boxes its operand", name, tv.Type)
		} else if isStringBytesConv(pass, tv.Type, call) {
			pass.Reportf(call.Pos(), "hotpath %s: string<->[]byte conversion copies", name)
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(), "hotpath %s: make allocates; use construction-time scratch", name)
			case "new":
				pass.Reportf(call.Pos(), "hotpath %s: new allocates", name)
			case "append":
				if !c.seenAppends[call] {
					pass.Reportf(call.Pos(),
						"hotpath %s: append outside the self-append reuse idiom may grow a new backing array", name)
				}
			}
			return
		}
	}

	checkBoxedArgs(pass, name, call)

	// Callee discipline: the callee must carry a hotpath/nonalloc
	// marker, here or (via facts) in its defining package.
	callee := calleeFunc(pass, call)
	if callee == nil {
		pass.Reportf(call.Pos(),
			"hotpath %s: dynamic call (interface method or func value) can allocate and defeats the static audit", name)
		return
	}
	rel := lintkit.DeclName(callee)
	if callee.Pkg() == nil { // error.Error etc. on universe types
		return
	}
	switch callee.Pkg().Path() {
	case "math", "math/bits":
		return // pure arithmetic leaves: nothing in either package allocates
	}
	if callee.Pkg() == pass.Pkg {
		if c.local.Has(rel) {
			return
		}
		pass.Reportf(call.Pos(),
			"hotpath %s: call to unmarked %s; mark it //wormvet:hotpath or //wormvet:nonalloc, or annotate the cold call site //wormvet:allow hotalloc", name, rel)
		return
	}
	if pass.ImportedHas(callee.Pkg().Path(), rel) {
		return
	}
	pass.Reportf(call.Pos(),
		"hotpath %s: call to unmarked %s.%s; mark it in its package or annotate the call site //wormvet:allow hotalloc", name, callee.Pkg().Path(), rel)
}

// checkBoxedArgs flags concrete values passed to interface parameters
// (boxing) and calls that materialize a variadic argument slice.
func checkBoxedArgs(pass *lintkit.Pass, name string, call *ast.CallExpr) {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		pass.Reportf(call.Pos(), "hotpath %s: variadic call allocates its argument slice", name)
	}
	for i, arg := range call.Args {
		if sig.Variadic() && i >= params.Len()-1 {
			break // the slice allocation above covers the tail
		}
		pt := params.At(i).Type()
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) || isNil(pass, arg) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"hotpath %s: passing %s as interface %s boxes it", name, at, pt)
	}
}

// calleeFunc resolves a call to its static *types.Func, or nil for
// dynamic calls.
func calleeFunc(pass *lintkit.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					return nil
				}
				return f
			}
			return nil
		}
		// Package-qualified call.
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func isBuiltin(pass *lintkit.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// sameBase reports whether dst and src denote the same variable once
// reslicing is stripped: buf and buf[:0] share a base.
func sameBase(dst, src ast.Expr) bool {
	for {
		if s, ok := src.(*ast.SliceExpr); ok {
			src = s.X
			continue
		}
		break
	}
	return types.ExprString(dst) == types.ExprString(src)
}

func isString(pass *lintkit.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringBytesConv(pass *lintkit.Pass, to types.Type, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	from := pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return false
	}
	toStr := isBasicString(to)
	fromStr := isBasicString(from)
	toBytes := isByteSlice(to)
	fromBytes := isByteSlice(from)
	return (toStr && fromBytes) || (toBytes && fromStr)
}

func isBasicString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isNil(pass *lintkit.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
