package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file is lockorder's lock machinery: classifying sync.Mutex/RWMutex
// method calls into lock/unlock events, pairing events into held intervals,
// and resolving a locked expression to its stable "class" name (the
// identity the acquisition graph and the //cstlint:lockorder directives
// speak in).

const (
	evLock = iota
	evUnlock
	evDeferUnlock
)

// lockEvent is one sync.Mutex/RWMutex Lock/Unlock-family call.
type lockEvent struct {
	pos   token.Pos
	key   string // rendered mutex expression, read locks suffixed " (read)"
	class string // mutexClass of the locked expression; "" when unclassified
	kind  int
}

// syncLockCall classifies a call as a mutex acquisition or release. Write
// and read sides pair independently — "mu" and "mu (read)" are distinct
// interval keys, so an RLock is only ever closed by an RUnlock (and vice
// versa), and TryLock/TryRLock open an interval exactly like their blocking
// counterparts (the analyzer assumes the acquisition succeeded; the paired
// Unlock closes it).
func syncLockCall(info *types.Info, call *ast.CallExpr) (lockEvent, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lockEvent{}, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || pkgPath(fn) != "sync" {
		return lockEvent{}, false
	}
	ev := lockEvent{pos: call.Pos(), key: types.ExprString(sel.X)}
	switch fn.Name() {
	case "Lock", "TryLock":
		ev.kind = evLock
	case "RLock", "TryRLock":
		ev.kind, ev.key = evLock, ev.key+" (read)"
	case "Unlock":
		ev.kind = evUnlock
	case "RUnlock":
		ev.kind, ev.key = evUnlock, ev.key+" (read)"
	default:
		return lockEvent{}, false
	}
	ev.class = mutexClass(info, sel.X)
	return ev, true
}

// collectLockEvents gathers body's lock events in position order. Function
// literals are skipped — a closure runs at an unknown time, not under this
// frame's locks — except that a directly deferred Unlock/RUnlock is
// recognized as holding to function exit.
func collectLockEvents(info *types.Info, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if ev, ok := syncLockCall(info, st.Call); ok && ev.kind == evUnlock {
				ev.pos, ev.kind = st.Pos(), evDeferUnlock
				events = append(events, ev)
			}
			return false
		case *ast.CallExpr:
			if ev, ok := syncLockCall(info, st); ok {
				events = append(events, ev)
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// lockInterval is one source region during which the keyed mutex is held.
type lockInterval struct {
	from, to token.Pos
	key      string // rendered mutex expression, e.g. "e.mu"
	class    string // lock class of the opening event; "" when unclassified
}

// pairIntervals reconstructs held regions from position-ordered events: each
// unlock closes the most recent open acquisition of the same key, a deferred
// unlock holds to bodyEnd, and acquisitions never released in this function
// (the lock escapes to a caller or another method) are held to bodyEnd.
func pairIntervals(events []lockEvent, bodyEnd token.Pos) []lockInterval {
	held := map[string][]lockEvent{}
	var out []lockInterval
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			held[ev.key] = append(held[ev.key], ev)
		case evUnlock, evDeferUnlock:
			stack := held[ev.key]
			if len(stack) == 0 {
				continue // unlock of a lock taken by the caller; no interval here
			}
			open := stack[len(stack)-1]
			held[ev.key] = stack[:len(stack)-1]
			to := ev.pos
			if ev.kind == evDeferUnlock {
				to = bodyEnd // deferred unlock holds to function exit
			}
			out = append(out, lockInterval{from: open.pos, to: to, key: ev.key, class: open.class})
		}
	}
	keys := make([]string, 0, len(held))
	for key := range held {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, open := range held[key] {
			out = append(out, lockInterval{from: open.pos, to: bodyEnd, key: key, class: open.class})
		}
	}
	return out
}

// lowerFirst lower-cases the first rune: the class-name rendering that makes
// "Engine" read as "engine" in directives and findings.
func lowerFirst(s string) string {
	r, size := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError {
		return s
	}
	return string(unicode.ToLower(r)) + s[size:]
}

// namedTypeName resolves t (through pointers) to its named type's name, or
// "" when t is unnamed.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// mutexClass names the lock behind expr for the acquisition graph:
//
//   - a mutex field gives "<type>.<field>" with the owning type's first
//     rune lowered ("Engine.mu" reads as "engine.mu"), which is also the
//     grammar //cstlint:lockorder directives use;
//   - a package-level mutex var gives "<pkg>.<var>";
//   - a struct embedding sync.Mutex locked through its promoted method
//     gives "<type>.Mutex";
//   - locals, parameters and anything else give "" — unclassified locks
//     still open held intervals for the calls-under-lock check but stay out
//     of the acquisition graph (a local mutex cannot be re-acquired by a
//     callee).
//
// Two types with the same name in different packages collapse onto one
// class; the repo's type names are distinct, and a collision only ever
// merges orderings (conservative for cycle detection).
func mutexClass(info *types.Info, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	switch x := expr.(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
			if name := namedTypeName(info.TypeOf(x.X)); name != "" {
				return lowerFirst(name) + "." + v.Name()
			}
			return ""
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && !v.IsField() {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
			return ""
		}
	}
	// A promoted Lock on a struct embedding sync.Mutex: expr is the struct.
	if name := namedTypeName(info.TypeOf(expr)); name != "" && name != "Mutex" && name != "RWMutex" {
		return lowerFirst(name) + ".Mutex"
	}
	return ""
}

// funcDisplay renders fn for witness chains: "pkg.Func" or
// "pkg.(*Recv).Method".
func funcDisplay(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t, star = p.Elem(), "*"
		}
		if n, isNamed := t.(*types.Named); isNamed {
			return pkg + "(" + star + n.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// isLockedConvention reports whether fd follows the repo's *Locked naming
// convention: the caller holds the receiver's lock over the whole body.
func isLockedConvention(fd *ast.FuncDecl) bool {
	return strings.HasSuffix(fd.Name.Name, "Locked")
}
