package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoDeterm flags nondeterminism sources in result-affecting packages: raw
// wall-clock reads (time.Now, time.Since, time.Until) and global or
// visibly-unseeded math/rand use. Determinism is load-bearing here — journal
// replay re-executes a campaign and expects the identical measurement
// sequence (DESIGN.md §6), and golden tests pin results byte-for-byte — so
// wall-clock reads must route through the one injectable seam, engine.Clock.
// Referencing time.Now as a *value* (installing it as a Clock default) is
// the sanctioned pattern and is not flagged; calling it is.
var NoDeterm = &Analyzer{
	Name: "nodeterm",
	Doc:  "flags wall-clock and global/unseeded math/rand calls in result-affecting packages",
	Run:  runNoDeterm,
}

// randSourceCtors are the seeded-source constructors whose direct call as
// the rand.New argument makes the seed evident at the call site.
var randSourceCtors = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

// resultAffecting is nodeterm's scope: packages with an "internal" path
// segment, whose behaviour reaches tuning results.
func resultAffecting(pkgPath string) bool {
	return strings.Contains("/"+pkgPath+"/", "/internal/")
}

func runNoDeterm(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		if !resultAffecting(pkg.PkgPath) {
			continue
		}
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPkgFunc(info, call, "time", "Now", "Since", "Until") {
					obj := calleeObj(info, call)
					pass.Reportf(call.Pos(),
						"time.%s called in a result-affecting package; read wall time through the engine.Clock seam (engine.Now / engine.Time)", obj.Name())
					return true
				}
				for _, randPath := range []string{"math/rand", "math/rand/v2"} {
					obj := calleeObj(info, call)
					fn, ok := obj.(*types.Func)
					if !ok || pkgPath(fn) != randPath {
						continue
					}
					if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
						continue // methods on a seeded *rand.Rand are fine
					}
					switch {
					case fn.Name() == "New":
						if !seededSourceArg(info, call, randPath) {
							pass.Reportf(call.Pos(),
								"rand.New whose source is not a direct rand.NewSource(seed) call; seed provenance must be evident at the construction site")
						}
					case randSourceCtors[fn.Name()] || fn.Name() == "NewZipf":
						// Source constructors carry the seed; fine on their own.
					default:
						pass.Reportf(call.Pos(),
							"global math/rand.%s call shares process-wide state; draw from a seeded stats.NewRand(seed) instead", fn.Name())
					}
				}
				return true
			})
		}
	}
}

// seededSourceArg reports whether the rand.New call's argument is a direct
// seeded-source constructor call from the same rand package.
func seededSourceArg(info *types.Info, call *ast.CallExpr, randPath string) bool {
	if len(call.Args) != 1 {
		return false
	}
	inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := calleeObj(info, inner)
	fn, ok := obj.(*types.Func)
	if !ok || pkgPath(fn) != randPath {
		return false
	}
	return randSourceCtors[fn.Name()]
}
