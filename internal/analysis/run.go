package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Config controls one driver run.
type Config struct {
	// Root is the absolute directory of the tree to lint.
	Root string
	// ModulePath is the module's import path; empty for bare fixture trees.
	ModulePath string
}

// Result is one driver run's output.
type Result struct {
	Fset  *token.FileSet
	Diags []Diagnostic
}

// Run loads every package under cfg.Root, runs each analyzer over all of
// them, applies allow directives, validates the directives themselves, and
// returns the position-sorted findings. Loading dominates the run: nearly
// all of it is type-checking the standard library from source.
func Run(cfg Config) (*Result, error) {
	l := NewLoader(cfg.Root, cfg.ModulePath)
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	var dirs []*directive
	for _, pkg := range pkgs {
		dirs = append(dirs, parseDirectives(l.Fset, pkg.Files)...)
	}

	var all []Diagnostic
	funcs := collectFuncs(pkgs)
	orders := orderDecls(dirs)
	known := map[string]bool{}
	for _, a := range DefaultAnalyzers() {
		known[a.Name] = true
		a.Run(&Pass{
			Analyzer:   a,
			Pkgs:       pkgs,
			Fset:       l.Fset,
			ModulePath: cfg.ModulePath,
			Orders:     orders,
			funcs:      funcs,
			diags:      &all,
		})
	}

	all = applyDirectives(l.Fset, all, dirs)
	all = append(all, directiveFindings(dirs, known)...)

	sort.Slice(all, func(i, j int) bool {
		pi, pj := l.Fset.Position(all[i].Pos), l.Fset.Position(all[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return &Result{Fset: l.Fset, Diags: all}, nil
}

// Format renders the findings as "file:line: [analyzer] message" lines, with
// file paths relative to base when possible.
func (r *Result) Format(base string) []string {
	out := make([]string, 0, len(r.Diags))
	for _, d := range r.Diags {
		p := r.Fset.Position(d.Pos)
		file := p.Filename
		if rel, err := filepath.Rel(base, file); base != "" && err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		out = append(out, fmt.Sprintf("%s:%d: [%s] %s", filepath.ToSlash(file), p.Line, d.Analyzer, d.Message))
	}
	return out
}
