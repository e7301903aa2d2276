package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe is the fixture expectation grammar: `// want analyzer "substr"` on
// the finding's line, or `// want-above analyzer "substr"` on the line below
// it (needed when the finding's line is itself a directive comment, which
// must end at its closing paren).
var wantRe = regexp.MustCompile(`// want(-above)? ([a-z]+) "([^"]+)"`)

type expectation struct {
	file     string // slash-separated, relative to the fixture root
	line     int
	analyzer string
	substr   string
	matched  bool
}

func (e *expectation) String() string {
	return fmt.Sprintf("%s:%d: [%s] ~%q", e.file, e.line, e.analyzer, e.substr)
}

func collectWants(t *testing.T, root string) []*expectation {
	t.Helper()
	var out []*expectation
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, ln := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(ln, -1) {
				line := i + 1
				if m[1] == "-above" {
					line--
				}
				out = append(out, &expectation{
					file: filepath.ToSlash(rel), line: line,
					analyzer: m[2], substr: m[3],
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAnalyzerFixtures runs the full suite over each analyzer's fixture tree
// and requires an exact match between findings and // want expectations: an
// unexpected finding fails, and so does an expectation nothing satisfied.
func TestAnalyzerFixtures(t *testing.T) {
	for _, name := range []string{"nodeterm", "maporder", "errdrop", "lockcall", "rawfs", "directive", "lockorder", "atomicmix", "goleak"} {
		t.Run(name, func(t *testing.T) {
			root, err := filepath.Abs(filepath.Join("testdata", "src", name))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{Root: root})
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, root)
			for _, d := range res.Diags {
				p := res.Fset.Position(d.Pos)
				rel, err := filepath.Rel(root, p.Filename)
				if err != nil {
					t.Fatal(err)
				}
				rel = filepath.ToSlash(rel)
				found := false
				for _, w := range wants {
					if !w.matched && w.file == rel && w.line == p.Line &&
						w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected finding %s:%d: [%s] %s", rel, p.Line, d.Analyzer, d.Message)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing expected finding %s", w)
				}
			}
		})
	}
}

// TestDriverGolden pins the driver's formatted output — ordering, relative
// paths, and message text — against a committed golden file.
func TestDriverGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "golden", "src"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(res.Format(root), "\n") + "\n"
	wantBytes, err := os.ReadFile(filepath.Join("testdata", "golden", "want.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(wantBytes) {
		t.Errorf("driver output mismatch\n--- got ---\n%s--- want ---\n%s", got, wantBytes)
	}
}

// TestSyntheticViolation seeds a raw time.Now into a synthetic module's
// internal/core and proves the suite fails it — the acceptance check that a
// regression of the clock-seam discipline cannot land silently.
func TestSyntheticViolation(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "core")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`
	if err := os.WriteFile(filepath.Join(dir, "core.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Root: root, ModulePath: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("findings = %v, want exactly one", res.Format(root))
	}
	d := res.Diags[0]
	if d.Analyzer != "nodeterm" || !strings.Contains(d.Message, "time.Now") {
		t.Fatalf("finding = [%s] %s, want nodeterm about time.Now", d.Analyzer, d.Message)
	}
}

// TestCycleWitnessChains pins the shape of a lock-order cycle finding: the
// classic two-lock inversion is reported once, with both directions' witness
// call chains printed in the one diagnostic.
func TestCycleWitnessChains(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "lockorder"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	var cycle string
	for _, d := range res.Diags {
		if d.Analyzer == "lockorder" && strings.Contains(d.Message, "potential deadlock") {
			if cycle != "" {
				t.Fatalf("second cycle finding: %s", d.Message)
			}
			cycle = d.Message
		}
	}
	if cycle == "" {
		t.Fatal("no cycle finding on the lockorder fixture")
	}
	for _, want := range []string{
		"lock-order cycle among alpha.mu, beta.mu",
		"alpha.mu -> beta.mu via lo.lockAB -> lo.lockB",
		"beta.mu -> alpha.mu via lo.lockBA",
	} {
		if !strings.Contains(cycle, want) {
			t.Errorf("cycle finding missing %q:\n%s", want, cycle)
		}
	}
}

// TestTypeCheckError drives the driver over a package that does not
// type-check and requires a positioned error, the condition under which
// cstlint exits 2.
func TestTypeCheckError(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "broken")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package broken

func f() int { return "not an int" }
`
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(Config{Root: root, ModulePath: "synth"})
	if err == nil {
		t.Fatal("Run succeeded on a package that does not type-check")
	}
	msg := err.Error()
	if !strings.Contains(msg, "broken.go:3") {
		t.Errorf("error %q does not carry the failing position broken.go:3", msg)
	}
	if !strings.Contains(msg, "type-checking") {
		t.Errorf("error %q does not say it is a type-checking failure", msg)
	}
}

// TestRepoClean is the self-hosting check: the repo's own tree must produce
// zero findings, the same gate CI applies via `go run ./cmd/cstlint ./...`.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Root: root, ModulePath: "repro"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 0 {
		t.Errorf("repo is not lint-clean:\n%s", strings.Join(res.Format(root), "\n"))
	}
}
