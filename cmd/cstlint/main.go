// Command cstlint runs the repo's static-analysis suite (internal/analysis)
// over the module containing the working directory and prints findings as
// "file:line: [analyzer] message". Exit status: 0 clean, 1 findings, 2 when
// the tree fails to load or type-check.
//
// Usage:
//
//	cstlint [./...]
//
// The package-pattern argument is accepted for familiarity but the suite
// always lints the whole module: its invariants (determinism, accounting,
// lock discipline) are module-wide properties.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cstlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run() (int, error) {
	flag.Parse() // no flags: rejects unknown ones, serves -h
	wd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	root, modPath, err := findModule(wd)
	if err != nil {
		return 0, err
	}
	res, err := analysis.Run(analysis.Config{Root: root, ModulePath: modPath})
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(os.Stdout)
	for _, line := range res.Format(wd) {
		fmt.Fprintln(w, line)
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(w, "cstlint: %d finding(s)\n", len(res.Diags))
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	if len(res.Diags) > 0 {
		return 1, nil
	}
	return 0, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns the
// module root and its module path.
func findModule(dir string) (root, modPath string, err error) {
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
