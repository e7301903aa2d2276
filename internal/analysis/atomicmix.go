package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicMix flags plain (non-atomic) accesses to struct fields that are
// accessed atomically anywhere in the program — the bug class -race only
// catches when the schedule happens to interleave the two access modes.
//
// Two field categories are tracked across the whole tree:
//
//   - address-taken function-form fields: any field passed by address to a
//     sync/atomic package function (atomic.AddInt64(&s.f, …),
//     atomic.LoadUint32(&s.f), CompareAndSwap…) is registered as
//     atomic-only; every other direct read, write or address-of of the same
//     field is a finding;
//   - typed atomic fields (atomic.Int64, atomic.Pointer[T], atomic.Value,
//     …): resetting one by assigning a composite literal (c.gauge =
//     atomic.Int64{}) is a finding. Copies of a typed atomic are go vet's
//     copylocks check (they carry a noCopy marker), which CI runs; vet
//     accepts the literal assignment, so this analyzer keeps it.
//
// Initialization scope is exempt: accesses inside a constructor (a
// package-level function whose name starts with New/new/make/Make) or an
// init function, and fields set in composite literals, are single-goroutine
// by convention. Indirect aliasing (a plain pointer to the field captured
// outside an atomic call) is a documented false-negative boundary.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "flags plain reads/writes of struct fields that are elsewhere accessed via sync/atomic",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	// Pass 1: register function-form atomic fields and mark their sanctioned
	// &field argument nodes across the whole tree.
	atomicFields := map[*types.Var]bool{}
	sanctioned := map[ast.Node]bool{}
	for _, pkg := range pass.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := calleeObj(info, call).(*types.Func)
				if !ok || pkgPath(fn) != "sync/atomic" {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods on typed atomics register nothing
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op.String() != "&" {
						continue
					}
					sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
						atomicFields[v] = true
						sanctioned[sel] = true
					}
				}
				return true
			})
		}
	}

	// Pass 2: find plain accesses. Walk with a parent stack so each selector
	// can be judged by its immediate context.
	for _, pkg := range pass.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				v, ok := info.Uses[sel.Sel].(*types.Var)
				if !ok || !v.IsField() || sanctioned[sel] {
					return true
				}
				parent := parentOf(stack)
				if inConstructorScope(stack) {
					return true
				}
				if atomicFields[v] {
					// The selector may itself be the prefix of a deeper
					// selector (s.f.g) — only the exact field access counts.
					if p, isSel := parent.(*ast.SelectorExpr); isSel && p.X == sel {
						return true
					}
					pass.Reportf(sel.Pos(),
						"field %s is accessed via sync/atomic elsewhere; this plain access races with it — use the atomic API (or move it into a New*/init constructor)",
						fieldDisplay(v))
					return true
				}
				if as, isAssign := parent.(*ast.AssignStmt); isAssign && isTypedAtomic(v.Type()) && assignsLiteral(as, sel) {
					pass.Reportf(sel.Pos(),
						"field %s has atomic type %s; copying or reassigning the value bypasses its atomicity — call its methods or share &%s",
						fieldDisplay(v), v.Type().String(), sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// parentOf returns the node enclosing the top of the stack, or nil.
func parentOf(stack []ast.Node) ast.Node {
	if len(stack) < 2 {
		return nil
	}
	return stack[len(stack)-2]
}

// inConstructorScope reports whether the innermost enclosing function
// declaration is a constructor (New*/new*/make*/Make*) or init, or the
// access sits inside a composite literal — initialization contexts where a
// not-yet-shared value is plainly writable by convention.
func inConstructorScope(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.CompositeLit:
			return true
		case *ast.FuncDecl:
			name := n.Name.Name
			for _, prefix := range []string{"New", "new", "Make", "make"} {
				if strings.HasPrefix(name, prefix) {
					return true
				}
			}
			return name == "init"
		}
	}
	return false
}

// isTypedAtomic reports whether t is one of sync/atomic's value types
// (atomic.Int64, atomic.Pointer[T], atomic.Value, …).
func isTypedAtomic(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// assignsLiteral reports whether as assigns a composite literal to lhs.
func assignsLiteral(as *ast.AssignStmt, lhs ast.Expr) bool {
	if len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, l := range as.Lhs {
		if l == lhs {
			_, ok := ast.Unparen(as.Rhs[i]).(*ast.CompositeLit)
			return ok
		}
	}
	return false
}

// fieldDisplay renders a field as pkg.field for findings: the field's owner
// type is not reachable from the Var, and the package-qualified name is
// unambiguous enough.
func fieldDisplay(v *types.Var) string {
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}
