package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the package's import path (module-qualified for module
	// loads, root-relative for bare fixture trees).
	PkgPath string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader loads packages from a source tree with no toolchain dependency
// beyond the standard library: module packages are parsed and type-checked
// from source, standard-library imports resolve through go/importer's
// source importer (GOROOT/src), and everything is memoized on one shared
// FileSet so positions stay coherent across packages.
type Loader struct {
	// Root is the absolute directory holding the tree to load.
	Root string
	// ModulePath is the import path Root corresponds to ("repro" for this
	// module). Empty means a bare tree: import paths are directory paths
	// relative to Root — the layout analyzer fixtures use.
	ModulePath string
	// Fset is the shared position table for every parsed file.
	Fset *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader over root; modulePath may be empty for bare
// fixture trees.
func NewLoader(root, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:       root,
		ModulePath: modulePath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// skipDir reports whether a directory is outside the analyzed tree:
// testdata (analyzer fixtures are loaded explicitly, never as module
// packages), VCS metadata, and underscore/dot-prefixed trees, matching the
// go tool's matching rules.
func skipDir(name string) bool {
	return name == "testdata" || name == ".git" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadAll walks Root and loads every package directory (non-test .go files
// present), returning packages sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.Walk(l.Root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		if path != l.Root && skipDir(fi.Name()) {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(l.Root, path)
		if err != nil {
			return err
		}
		paths = append(paths, l.importPathFor(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// parseDir parses a directory's non-test Go files in name order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return files, nil
}

// importPathFor maps a Root-relative directory to its import path.
func (l *Loader) importPathFor(rel string) string {
	rel = filepath.ToSlash(rel)
	if rel == "." {
		if l.ModulePath != "" {
			return l.ModulePath
		}
		return "."
	}
	if l.ModulePath != "" {
		return l.ModulePath + "/" + rel
	}
	return rel
}

// dirFor maps an import path inside the tree back to its directory, or ""
// when the path is not inside the tree.
func (l *Loader) dirFor(path string) string {
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.Root
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.Root, filepath.FromSlash(rest))
		}
		return ""
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(path))
	if hasGoFiles(dir) {
		return dir
	}
	return ""
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// Load loads (or returns the memoized) package at the given import path.
// Only non-test files are loaded: the analyzers' contracts are scoped to
// production code, and external test packages would need a second
// type-checking universe for no findings they could contribute.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("analysis: import path %q is outside the loaded tree", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{PkgPath: path, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// loaderImporter adapts the loader to types.Importer: tree-local imports
// load from source through the loader itself; everything else (the standard
// library) goes to the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.dirFor(path); dir != "" {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
