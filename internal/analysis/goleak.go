package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoLeak enforces the goroutine-lifecycle discipline the service and engine
// rely on: every spawned goroutine must be joined or cancellable before its
// owner returns, and a context handed to a function must flow into the
// context-aware callees it invokes.
//
// A `go` statement is accepted when the goroutine is provably governed:
//
//   - joined: its body calls Done() on a sync.WaitGroup (the spawner's
//     Wait/Add pairing is the repo convention the torture suite exercises);
//   - watching: its body contains a select statement or a channel receive —
//     it can observe a context.Done or stop channel it was handed;
//   - hand-off: its body sends on a channel that the spawning function
//     itself receives from (the `errc <- srv.ListenAndServe()` idiom);
//   - for `go f(…)` on a named function: any argument of context, channel
//     or *sync.WaitGroup type makes the callee governable, and an in-package
//     callee whose body is joined/watching by the rules above is accepted.
//
// Anything else is a leak candidate: nothing can stop it and nothing waits
// for it.
//
// Separately, inside any function that takes a context.Context parameter,
// a call that drops that context is flagged:
//
//   - a *Ctx-suffixed callee invoked with context.Background()/TODO()
//     instead of the in-scope context;
//   - a callee with a *Ctx-suffixed sibling (method M where MCtx exists on
//     the same type, or package function f where fCtx exists) invoked with
//     no context-typed argument at all.
//
// Calls passing the context itself, a derived context (anything
// context-typed), or any expression mentioning the context parameter are
// accepted.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "flags unjoined/uncancellable goroutines and context-dropping calls",
	Run:  runGoLeak,
}

func runGoLeak(pass *Pass) {
	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, fn := range pass.funcs {
		bodies[fn.obj] = fn.decl.Body
	}
	for _, fn := range pass.funcs {
		checkGoStmts(pass, fn, bodies)
		checkCtxFlow(pass, fn.pkg.Info, fn.decl)
	}
}

// checkGoStmts applies the goroutine-lifecycle rules to every go statement
// in fn. bodies holds every declared function's body, for named callees.
func checkGoStmts(pass *Pass, fn funcDecl, bodies map[*types.Func]*ast.BlockStmt) {
	info, fd := fn.pkg.Info, fn.decl
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			if goroutineGoverned(info, lit.Body, fd.Body) {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine is neither joined (no WaitGroup Done) nor cancellable (no select/receive) nor handed off on a channel the spawner drains; it can outlive its owner")
			return true
		}
		// Named callee: governable when handed a context, channel or
		// WaitGroup, or when its in-package body is itself governed.
		for _, arg := range g.Call.Args {
			if isGovernanceArg(info.TypeOf(arg)) {
				return true
			}
		}
		if callee, ok := calleeObj(info, g.Call).(*types.Func); ok && callee.Pkg() == fn.pkg.Types {
			if body := bodies[callee]; body != nil && goroutineGoverned(info, body, fd.Body) {
				return true
			}
		}
		pass.Reportf(g.Pos(),
			"goroutine runs a function with no context, channel or WaitGroup handed to it and no join/watch in its body; it can outlive its owner")
		return true
	})
}

// goroutineGoverned reports whether a goroutine body is joined, watching, or
// hands its result to the spawner.
func goroutineGoverned(info *types.Info, body *ast.BlockStmt, spawner *ast.BlockStmt) bool {
	governed := false
	var sendTargets []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SelectStmt:
			governed = true
		case *ast.UnaryExpr:
			if st.Op.String() == "<-" {
				governed = true // receive: can block on / observe a signal
			}
		case *ast.SendStmt:
			if obj := chanObject(info, st.Chan); obj != nil {
				sendTargets = append(sendTargets, obj)
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok &&
					fn.Name() == "Done" && pkgPath(fn) == "sync" {
					governed = true // wg.Done: joined by the spawner's Wait
				}
			}
		}
		return !governed
	})
	if governed {
		return true
	}
	if len(sendTargets) == 0 {
		return false
	}
	// Hand-off: the spawner receives from a channel the goroutine sends on.
	received := false
	ast.Inspect(spawner, func(n ast.Node) bool {
		un, ok := n.(*ast.UnaryExpr)
		if !ok || un.Op.String() != "<-" {
			return true
		}
		if obj := chanObject(info, un.X); obj != nil {
			for _, t := range sendTargets {
				if t == obj {
					received = true
				}
			}
		}
		return !received
	})
	return received
}

// chanObject resolves a channel expression to its variable object, when it
// is a simple identifier or selector.
func chanObject(info *types.Info, expr ast.Expr) types.Object {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

// isGovernanceArg reports whether an argument of this type lets the callee
// govern its own lifetime: a context, any channel, or a WaitGroup pointer.
func isGovernanceArg(t types.Type) bool {
	if t == nil {
		return false
	}
	if isContextType(t) {
		return true
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		if n, ok := p.Elem().(*types.Named); ok {
			return n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCtxFlow flags calls inside a context-accepting function that drop
// the context.
func checkCtxFlow(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	ctxParams := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && name.Name != "_" && isContextType(obj.Type()) {
					ctxParams[obj] = true
				}
			}
		}
	}
	if len(ctxParams) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := calleeObj(info, call).(*types.Func)
		if !ok {
			return true
		}
		hasCtxTyped := false
		mentionsParam := false
		hasBackground := false
		for _, arg := range call.Args {
			if t := info.TypeOf(arg); t != nil && isContextType(t) {
				hasCtxTyped = true
				if isBackgroundCall(info, arg) {
					hasBackground = true
				}
			}
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && ctxParams[info.Uses[id]] {
					mentionsParam = true
				}
				return !mentionsParam
			})
		}
		if mentionsParam {
			return true
		}
		name := fn.Name()
		switch {
		case strings.HasSuffix(name, "Ctx") && hasBackground:
			pass.Reportf(call.Pos(),
				"%s called with context.Background/TODO although a context parameter is in scope; pass the caller's context", name)
		case !strings.HasSuffix(name, "Ctx") && !hasCtxTyped && hasCtxSibling(fn):
			pass.Reportf(call.Pos(),
				"%s drops the in-scope context; %sCtx exists — pass the caller's context through it", name, name)
		}
		return true
	})
}

// isBackgroundCall reports whether expr is a direct context.Background() or
// context.TODO() call.
func isBackgroundCall(info *types.Info, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	return isPkgFunc(info, call, "context", "Background", "TODO")
}

// hasCtxSibling reports whether fn has a context-aware variant: a method
// named <fn>Ctx on the same receiver type, or a package-level function
// <fn>Ctx in the same package, whose first parameter is a context.
func hasCtxSibling(fn *types.Func) bool {
	want := fn.Name() + "Ctx"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	var sibling types.Object
	if recv := sig.Recv(); recv != nil {
		sibling, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), want)
	} else if fn.Pkg() != nil {
		sibling = fn.Pkg().Scope().Lookup(want)
	}
	sfn, ok := sibling.(*types.Func)
	if !ok {
		return false
	}
	ssig, ok := sfn.Type().(*types.Signature)
	if !ok || ssig.Params().Len() == 0 {
		return false
	}
	return isContextType(ssig.Params().At(0).Type())
}
