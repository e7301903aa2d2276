package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// directivePrefix introduces every cstlint control comment.
const directivePrefix = "//cstlint:"

// allowRe is the allow-directive grammar: //cstlint:allow name(reason).
// The reason is mandatory — an unexplained suppression is itself a finding.
var allowRe = regexp.MustCompile(`^//cstlint:allow\s+([A-Za-z][A-Za-z0-9_]*)\((.*)\)\s*$`)

// orderRe is the lock-order declaration grammar: //cstlint:lockorder a < b,
// where a and b are lock class names as lockorder renders them
// ("engine.mu", "shard.mu"). It declares that a is always acquired
// before b; lockorder reports any observed acquisition edge contradicting
// it.
var orderRe = regexp.MustCompile(`^//cstlint:lockorder\s+([A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*)\s*<\s*([A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*)\s*$`)

const (
	dirAllow = iota
	dirOrder
)

// directive is one parsed //cstlint: comment.
type directive struct {
	pos      token.Pos
	file     string
	line     int
	kind     int
	analyzer string // allow: the suppressed analyzer
	reason   string
	before   string // lockorder: the class acquired first
	after    string // lockorder: the class acquired second
	malform  string // non-empty when the comment failed to parse
	used     bool
}

// OrderDecl is one declared lock ordering, surfaced to the lockorder
// analyzer through Pass.Orders.
type OrderDecl struct {
	// Before must always be acquired before After.
	Before, After string

	d *directive
}

// MarkUsed records that the declaration matched real lock classes, so the
// directive validator does not report it stale.
func (o *OrderDecl) MarkUsed() { o.d.used = true }

// parseDirectives extracts every cstlint control comment from the package's
// files.
func parseDirectives(fset *token.FileSet, files []*ast.File) []*directive {
	var out []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				p := fset.Position(c.Pos())
				d := &directive{pos: c.Pos(), file: p.Filename, line: p.Line}
				if strings.HasPrefix(text, "//cstlint:lockorder") {
					d.kind = dirOrder
					if m := orderRe.FindStringSubmatch(text); m == nil {
						d.malform = "directive must match //cstlint:lockorder class.field < class.field"
					} else {
						d.before, d.after = m[1], m[2]
					}
					out = append(out, d)
					continue
				}
				m := allowRe.FindStringSubmatch(text)
				switch {
				case m == nil:
					d.malform = "directive must match //cstlint:allow analyzer(reason)"
				case strings.TrimSpace(m[2]) == "":
					d.analyzer = m[1]
					d.malform = "allow directive needs a non-empty reason"
				default:
					d.analyzer = m[1]
					d.reason = strings.TrimSpace(m[2])
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// orderDecls projects the well-formed lockorder directives out of dirs.
func orderDecls(dirs []*directive) []*OrderDecl {
	var out []*OrderDecl
	for _, d := range dirs {
		if d.kind == dirOrder && d.malform == "" {
			out = append(out, &OrderDecl{Before: d.before, After: d.after, d: d})
		}
	}
	return out
}

// applyDirectives removes diagnostics suppressed by a well-formed allow
// directive for the same analyzer on the diagnostic's line or the line
// directly above it (so a directive can trail the statement or sit on its
// own line before it), marking each directive that suppressed something.
func applyDirectives(fset *token.FileSet, diags []Diagnostic, dirs []*directive) []Diagnostic {
	kept := diags[:0]
	for _, dg := range diags {
		p := fset.Position(dg.Pos)
		suppressed := false
		for _, d := range dirs {
			if d.kind != dirAllow || d.malform != "" || d.analyzer != dg.Analyzer || d.file != p.Filename {
				continue
			}
			if d.line == p.Line || d.line == p.Line-1 {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, dg)
		}
	}
	return kept
}

// directiveName is the reserved analyzer name for directive-validation
// findings; it cannot itself be allow-suppressed.
const directiveName = "directive"

// directiveFindings validates the package's directives after suppression:
// malformed comments, unknown analyzer names, and stale allows that no
// longer suppress anything are all findings. Stale allows matter as much as
// the real analyzers — a dead suppression is a silent hole the next true
// finding falls through. A lockorder declaration is stale when no mutex in
// the tree matches one of its classes (the code it ordered is gone or was
// renamed).
func directiveFindings(dirs []*directive, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range dirs {
		switch {
		case d.malform != "":
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: directiveName, Message: d.malform})
		case d.kind == dirOrder:
			if !d.used {
				out = append(out, Diagnostic{Pos: d.pos, Analyzer: directiveName,
					Message: "stale lockorder declaration: no mutex matches class " + d.before + " or " + d.after + "; update or delete the directive"})
			}
		case !known[d.analyzer]:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: directiveName,
				Message: "allow names unknown analyzer \"" + d.analyzer + "\""})
		case !d.used:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: directiveName,
				Message: "stale allow: no " + d.analyzer + " finding is suppressed here; delete the directive"})
		}
	}
	return out
}
