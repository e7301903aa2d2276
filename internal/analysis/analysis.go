// Package analysis is the repo-native static-analysis suite behind
// cmd/cstlint. The reproduction's value rests on invariants no test can
// exhaustively check — results byte-identical across worker counts and
// resumes, every measurement charged before state mutates, generated kernels
// consistent with the priced resource model — so this package proves the
// code-level preconditions of those invariants statically, on every commit:
//
//   - nodeterm: no raw wall-clock or global-RNG reads in result-affecting
//     packages (the engine.Clock seam is the one sanctioned path);
//   - maporder: no map iteration whose order can leak into results, output
//     or measurements;
//   - errdrop: no silently discarded error returns from internal/os/io
//     calls (an explicit `_ =` is the visible opt-out);
//   - rawfs: no direct os/ioutil filesystem calls in the durable-storage
//     packages (internal/journal, internal/store, internal/campaign) —
//     every disk touch goes through the internal/vfs seam so the chaos
//     walker can inject faults at it;
//   - goleak: every spawned goroutine is joined, watching a cancel signal,
//     or handing its result to the spawner, and an in-scope context flows
//     into context-aware callees instead of being dropped;
//   - lockorder: no objective measurements or user callbacks invoked while
//     a mutex is held, and the static lock-acquisition graph is acyclic and
//     consistent with declared //cstlint:lockorder orderings;
//   - atomicmix: fields accessed via sync/atomic anywhere are never read or
//     written plainly elsewhere (copies of typed atomics are go vet's
//     copylocks check);
//   - directive: every //cstlint:allow and //cstlint:lockorder annotation
//     is well-formed, names a real analyzer, and still applies to something.
//
// The driver is pure stdlib (go/parser, go/ast, go/types, go/token): it
// loads and type-checks every package in the module from source, runs each
// analyzer once over all of them, applies allow directives, and reports
// findings as "file:line: [analyzer] message" in position order.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding: an analyzer's claim about a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one named check. Run inspects every package of the pass and
// reports findings through pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is one analyzer's execution over the whole tree.
type Pass struct {
	Analyzer *Analyzer
	// Pkgs is every loaded package, sorted by import path.
	Pkgs []*Package
	Fset *token.FileSet
	// ModulePath scopes errdrop's "own module" test; empty for bare fixture
	// trees.
	ModulePath string
	// Orders is the declared lock-order set parsed from
	// //cstlint:lockorder directives across the whole tree.
	Orders []*OrderDecl

	funcs []funcDecl
	diags *[]Diagnostic
}

// funcDecl is one function declaration with a body.
type funcDecl struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// collectFuncs lists every function declaration with a body: packages in
// path order, files and declarations in source order.
func collectFuncs(pkgs []*Package) []funcDecl {
	var out []funcDecl
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					out = append(out, funcDecl{obj: obj, decl: fd, pkg: pkg})
				}
			}
		}
	}
	return out
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// calleeObj resolves the object a call expression invokes: the *types.Func
// of a direct function or method call, the *types.Var of a call through a
// function-typed variable or field, a *types.Builtin for append and friends,
// or nil when the callee is not a simple reference (e.g. an immediately
// invoked function literal or a conversion).
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// pkgPath returns the import path of the package obj belongs to, or "" for
// universe-scope objects (builtins, error).
func pkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isPkgFunc reports whether call invokes the package-level function
// path.name (methods excluded).
func isPkgFunc(info *types.Info, call *ast.CallExpr, path string, names ...string) bool {
	obj := calleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || pkgPath(fn) != path {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// returnsError reports whether the callee's signature includes a result of
// type error.
func returnsError(obj types.Object) bool {
	sig, ok := obj.Type().Underlying().(*types.Signature)
	if !ok {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			return true
		}
	}
	return false
}

// objectiveMethods are the measurement entry points of sim.Objective and the
// engine.
var objectiveMethods = map[string]bool{
	"Measure": true, "MeasureCtx": true, "MeasureBatch": true, "MeasureBatchCtx": true,
}

// isObjectiveCall recognizes objective measurements: the Measure* method
// family on any receiver, plus Run/RunBatch on objective-shaped receivers
// (those that also have a Space method or field). maporder and lockorder
// share this one rule.
func isObjectiveCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if objectiveMethods[fn.Name()] {
		return true
	}
	if fn.Name() != "Run" && fn.Name() != "RunBatch" {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	space, _, _ := types.LookupFieldOrMethod(t, true, nil, "Space")
	return space != nil
}

// DefaultAnalyzers returns the suite in run order. The directive validator
// is not in the list: it runs inside the driver, after suppression, because
// it must observe which allows were used.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{NoDeterm, MapOrder, ErrDrop, RawFS, GoLeak, LockOrder, AtomicMix}
}
