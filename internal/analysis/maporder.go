package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` loops over maps whose bodies let Go's randomized
// iteration order escape: appending to a slice, writing to an output stream,
// or invoking an objective measurement. Any of these turns map order into
// result order, which breaks byte-identical golden reports and deterministic
// journal replay. The sanctioned idioms are (a) iterate, collect keys, sort,
// then loop the sorted slice, (b) append inside the loop and sort the slice
// afterwards in the same function — the analyzer recognizes that pattern —
// or (c) an explicit //cstlint:allow maporder(reason) when order provably
// cannot matter (pure counting, max-merging, map-to-map copies).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flags map iteration whose order can leak into results or output",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, fn := range pass.funcs {
		info, fd := fn.pkg.Info, fn.decl
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if msg, pos := orderLeak(info, fd, rs); msg != "" {
				pass.Reportf(pos, "map iteration order %s; sort keys first or annotate //cstlint:allow maporder(reason)", msg)
			}
			return true
		})
	}
}

// orderLeak inspects a map-range body for sinks that make iteration order
// observable. It returns a description of the first leak found ("" when the
// loop is order-safe) and the position to report.
func orderLeak(info *types.Info, fd *ast.FuncDecl, rs *ast.RangeStmt) (msg string, pos token.Pos) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if msg != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isAppendCall(info, call):
			target := appendTarget(call)
			if target == "" || !sortedAfter(info, fd, rs, target) {
				msg, pos = "reaches "+target+" via append and the slice is never sorted", rs.For
				if target == "" {
					msg = "reaches a slice via append"
				}
			}
		case isOutputCall(info, call):
			msg, pos = "reaches program output", rs.For
		case isObjectiveCall(info, call):
			msg, pos = "decides objective measurement order", rs.For
		}
		return true
	})
	return msg, pos
}

func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	b, ok := calleeObj(info, call).(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget renders the expression append's result is (conventionally)
// assigned back to — the first argument — so sortedAfter can match it
// against later sort calls textually. ExprString is stable enough for the
// `s = append(s, x)` / `m.Field = append(m.Field, x)` shapes the repo uses.
func appendTarget(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	return types.ExprString(call.Args[0])
}

// sortedAfter reports whether target appears as an argument of a sort.* or
// slices.Sort* call after the range loop ends, within the same function —
// the append-then-sort idiom that launders map order back out.
func sortedAfter(info *types.Info, fd *ast.FuncDecl, rs *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn, ok := calleeObj(info, call).(*types.Func)
		if !ok {
			return true
		}
		if p := pkgPath(fn); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == target {
				found = true
			}
		}
		return true
	})
	return found
}

// isOutputCall recognizes writes to program output: fmt's Print/Fprint
// families and Write/WriteString/WriteByte/WriteRune methods (io.Writer,
// bufio, strings.Builder — anything stream-shaped).
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObj(info, call).(*types.Func)
	if !ok {
		return false
	}
	if pkgPath(fn) == "fmt" {
		switch fn.Name() {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return true
		}
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return true
	}
	return false
}
