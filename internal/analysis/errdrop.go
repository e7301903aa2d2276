package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags error returns silently discarded from calls into this
// module, os, or io — the call sites where a swallowed error means a corrupt
// journal, a missing artifact, or a phantom measurement. A discard is
// "silent" when the call is a bare expression statement (or defer/go
// statement); the sanctioned opt-out is an explicit `_ = f()` assignment,
// which stays greppable and visibly deliberate. Third-party/stdlib calls
// outside os and io (fmt.Println, strings.Builder writes) are not flagged:
// the suite polices the repo's own failure surface, not Go at large.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flags silently discarded error returns from module-internal, os, and io calls",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				var how string
				switch st := n.(type) {
				case *ast.ExprStmt:
					call, how = asCall(st.X), "discards"
				case *ast.DeferStmt:
					call, how = st.Call, "defers and discards"
				case *ast.GoStmt:
					call, how = st.Call, "discards (in a goroutine)"
				default:
					return true
				}
				if call == nil {
					return true
				}
				obj := calleeObj(pkg.Info, call)
				if obj == nil || !returnsError(obj) || !errScoped(pass.ModulePath, pkg.PkgPath, obj) {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s the error returned by %s; handle it or assign it to _ explicitly", how, calleeName(call, obj))
				return true
			})
		}
	}
}

func asCall(x ast.Expr) *ast.CallExpr {
	call, _ := ast.Unparen(x).(*ast.CallExpr)
	return call
}

// errScoped reports whether the callee is inside errdrop's jurisdiction:
// this module (any package under modulePath, including the package being
// analyzed, self), os, or io.
func errScoped(modulePath, self string, obj types.Object) bool {
	path := pkgPath(obj)
	switch {
	case path == "os" || path == "io":
		return true
	case path == self:
		return true
	case modulePath != "" &&
		(path == modulePath || strings.HasPrefix(path, modulePath+"/")):
		return true
	}
	return false
}

// calleeName renders the call target the way the source spells it, for the
// diagnostic message.
func calleeName(call *ast.CallExpr, obj types.Object) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X) + "." + obj.Name()
	}
	return obj.Name()
}
