package analysis

import (
	"go/ast"
	"strings"
)

// RawFS flags direct filesystem calls — package-level os functions that touch
// the disk, and anything in the legacy io/ioutil — inside the durable-storage
// packages (internal/journal, internal/store, internal/campaign). Those
// packages must route every disk touch through the internal/vfs seam so the
// fault-point walker can enumerate and inject at each operation; a raw os
// call is a hole the chaos tests cannot see into. Non-filesystem os calls
// (os.Getpid, os.Getenv), constants (os.O_CREATE) and variables
// (os.ErrNotExist) are fine, as is any use outside the scoped packages.
var RawFS = &Analyzer{
	Name: "rawfs",
	Doc:  "flags direct os/ioutil filesystem calls in the durable-storage packages (use internal/vfs)",
	Run:  runRawFS,
}

// rawFSScopes are the package-path suffixes under rawfs jurisdiction: the
// packages whose disk traffic the fault-point walker must be able to
// enumerate. Matched against the full import path ("repro/internal/store")
// and bare fixture paths ("internal/store").
var rawFSScopes = []string{
	"internal/journal",
	"internal/store",
	"internal/campaign",
}

// osFSFuncs are the package-level os functions that touch the filesystem.
// Process/env functions (Getpid, Getenv, Exit, …) are deliberately absent.
var osFSFuncs = map[string]bool{
	"Chdir":      true,
	"Chmod":      true,
	"Chown":      true,
	"Chtimes":    true,
	"Create":     true,
	"CreateTemp": true,
	"Lchown":     true,
	"Link":       true,
	"Lstat":      true,
	"Mkdir":      true,
	"MkdirAll":   true,
	"MkdirTemp":  true,
	"Open":       true,
	"OpenFile":   true,
	"ReadDir":    true,
	"ReadFile":   true,
	"Readlink":   true,
	"Remove":     true,
	"RemoveAll":  true,
	"Rename":     true,
	"Stat":       true,
	"Symlink":    true,
	"Truncate":   true,
	"WriteFile":  true,
}

// rawFSScoped reports whether pkgPath is one of the durable-storage packages.
func rawFSScoped(pkgPath string) bool {
	for _, s := range rawFSScopes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

func runRawFS(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		if !rawFSScoped(pkg.PkgPath) {
			continue
		}
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObj(info, call)
				switch pkgPath(obj) {
				case "os":
					// Package-level fs functions only. os.File methods are not
					// re-flagged: the handle could only have come from an
					// os.Open call, which is already a finding.
					if !isPkgFunc(info, call, "os", obj.Name()) || !osFSFuncs[obj.Name()] {
						return true
					}
				case "io/ioutil":
					// Everything left in io/ioutil is either a filesystem
					// touch or deprecated in favour of io/os; neither belongs
					// here.
				default:
					return true
				}
				pass.Reportf(call.Pos(),
					"calls %s directly; durable-storage packages must go through internal/vfs so faults stay injectable",
					calleeName(call, obj))
				return true
			})
		}
	}
}
