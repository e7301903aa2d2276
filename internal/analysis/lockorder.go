package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder checks the repo's lock discipline from one per-function
// collection of lock events and held intervals.
//
// Calls under a held lock: an objective measurement (the Measure* family,
// or Run/RunBatch on an objective-shaped receiver) or a user callback (a
// call through a func-typed struct field or function parameter) made while
// any mutex is held is a finding. A measurement can block for a full kernel
// benchmark, serializing every other worker behind a GPU-length critical
// section, and a callback that re-enters the engine deadlocks. Every
// mutex opens intervals here, classified or not, and functions following
// the repo's *Locked naming convention are held over their whole body.
//
// The acquisition graph: every sync.Mutex/RWMutex acquisition is resolved
// to a lock *class* ("engine.mu" — the owning type, first rune lowered,
// dot, field name; see mutexClass). A monomorphic call graph built from
// go/types resolution propagates "locks this function may acquire"
// bottom-up, so an acquisition reached through any chain of direct calls
// while another class is held becomes an edge A -> B, carrying the witness
// call chain that produced it.
//
// Findings:
//
//   - a risky call inside a held interval, naming the lock;
//   - any cycle in the acquisition graph is a potential deadlock,
//     reported once per strongly-connected component with every edge's
//     witness chain printed;
//   - any edge that contradicts a declared //cstlint:lockorder a < b
//     directive (an acquisition of a while b is held) is an ordering
//     violation, reported at the outermost witness frame.
//
// Approximations (see DESIGN.md §15): the propagation is path-insensitive
// (a callee's acquisitions count even when its locked region is not on the
// executed path), function literals are opaque (a goroutine does not
// inherit its spawner's held set — correct — but a synchronously invoked
// closure's acquisitions and calls are also not seen — a false-negative
// boundary), interface method calls do not resolve to implementations, and
// read/write sides of one RWMutex collapse onto one class (writer-vs-reader
// cycles through one RWMutex are still deadlocks, so collapsing is
// conservative in the right direction).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "flags measurements and callbacks under a held mutex; reports lock-order cycles and declared-order contradictions",
	Run:  runLockOrder,
}

// loFunc is one analyzed function body.
type loFunc struct {
	obj *types.Func

	// locks are the class-resolved direct acquisitions (evLock events).
	locks []loLock
	// intervals are the held regions, classified or not.
	intervals []lockInterval
	// calls are the monomorphically resolved call sites, in position order.
	calls []loCall

	// acquires maps each class this function may lock — directly or through
	// any chain of resolved calls — to the first step toward it, for
	// witness-chain reconstruction.
	acquires map[string]loStep
}

type loLock struct {
	class string
	pos   token.Pos
}

type loCall struct {
	pos    token.Pos
	callee *types.Func
}

// loStep is one hop of a witness chain: a direct lock site, or the call
// leading toward one.
type loStep struct {
	direct bool
	pos    token.Pos
	via    *types.Func
}

// loEdge is one acquisition-graph edge: to was acquired while from was held.
type loEdge struct {
	from, to string
	pos      token.Pos // witness position in the outermost frame
	chain    string    // rendered witness call chain
}

func runLockOrder(pass *Pass) {
	funcs := loCollect(pass)
	loPropagate(pass, funcs)
	edges := loEdges(pass, funcs)

	classes := map[string]bool{}
	for _, fn := range pass.funcs {
		for _, lk := range funcs[fn.obj].locks {
			classes[lk.class] = true
		}
	}

	// Declared-order contradictions: an edge b -> a where a < b is declared.
	for _, decl := range pass.Orders {
		if classes[decl.Before] && classes[decl.After] {
			decl.MarkUsed()
		}
		for _, e := range edges {
			if e.from == decl.After && e.to == decl.Before {
				pass.Reportf(e.pos,
					"%s acquired while %s is held, contradicting the declared order %s < %s (path: %s)",
					e.to, e.from, decl.Before, decl.After, e.chain)
			}
		}
	}

	loReportCycles(pass, edges)
}

// loCollect builds the per-function lock/call facts for every function in
// the tree and reports risky calls made inside a held interval along the
// way.
func loCollect(pass *Pass) map[*types.Func]*loFunc {
	funcs := map[*types.Func]*loFunc{}
	for _, fn := range pass.funcs {
		info, fd := fn.pkg.Info, fn.decl
		lf := &loFunc{obj: fn.obj, acquires: map[string]loStep{}}
		if isLockedConvention(fd) {
			lf.intervals = append(lf.intervals, lockInterval{
				from: fd.Body.Pos(), to: fd.Body.End(),
				key: "the receiver's lock (the *Locked naming convention)",
			})
		}
		events := collectLockEvents(info, fd.Body)
		for _, ev := range events {
			if ev.kind == evLock && ev.class != "" {
				lf.locks = append(lf.locks, loLock{class: ev.class, pos: ev.pos})
				if _, ok := lf.acquires[ev.class]; !ok {
					lf.acquires[ev.class] = loStep{direct: true, pos: ev.pos}
				}
			}
		}
		lf.intervals = append(lf.intervals, pairIntervals(events, fd.Body.End())...)
		params := paramObjects(info, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // closures run at an unknown time; see doc
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if callee, isFn := calleeObj(info, call).(*types.Func); isFn {
				lf.calls = append(lf.calls, loCall{pos: call.Pos(), callee: callee.Origin()})
			}
			if len(lf.intervals) == 0 {
				return true
			}
			what := riskyCall(info, call, params)
			if what == "" {
				return true
			}
			for _, iv := range lf.intervals {
				if call.Pos() > iv.from && call.Pos() < iv.to {
					pass.Reportf(call.Pos(),
						"%s invoked while %s is held; release the lock around long-running or re-entrant calls", what, iv.key)
					break
				}
			}
			return true
		})
		funcs[fn.obj] = lf
	}
	return funcs
}

// paramObjects collects fd's parameter objects so calls through func-typed
// parameters (caller-supplied callbacks) can be recognized.
func paramObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// riskyCall classifies a call that must not run under a lock: an objective
// measurement or a user callback (a call through a func-typed struct field
// or function parameter — values the engine does not control). Local
// closures are not flagged: they are this function's own code and visible
// in review.
func riskyCall(info *types.Info, call *ast.CallExpr, params map[types.Object]bool) string {
	if isObjectiveCall(info, call) {
		return "objective " + types.ExprString(ast.Unparen(call.Fun))
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel].(*types.Var); ok && obj.IsField() && isFuncTyped(obj) {
			return "callback field " + types.ExprString(fun)
		}
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Var); ok && params[obj] && isFuncTyped(obj) {
			return "callback parameter " + fun.Name
		}
	}
	return ""
}

func isFuncTyped(v *types.Var) bool {
	_, ok := v.Type().Underlying().(*types.Signature)
	return ok
}

// loPropagate computes each function's transitive may-acquire set as a
// fixpoint over the call graph. Recursion converges because the class
// universe is finite and sets only grow.
func loPropagate(pass *Pass, funcs map[*types.Func]*loFunc) {
	for changed := true; changed; {
		changed = false
		for _, fn := range pass.funcs {
			lf := funcs[fn.obj]
			for _, c := range lf.calls {
				callee := funcs[c.callee]
				if callee == nil {
					continue
				}
				for class := range callee.acquires {
					if _, ok := lf.acquires[class]; !ok {
						lf.acquires[class] = loStep{pos: c.pos, via: c.callee}
						changed = true
					}
				}
			}
		}
	}
}

// loChain renders the witness call chain for acquiring class starting at
// lf's frame, following the per-function first-step pointers.
func loChain(pass *Pass, funcs map[*types.Func]*loFunc, lf *loFunc, class string) string {
	var frames []string
	seen := map[*loFunc]bool{}
	for lf != nil && !seen[lf] {
		seen[lf] = true
		frames = append(frames, funcDisplay(lf.obj))
		step, ok := lf.acquires[class]
		if !ok || step.direct {
			if ok {
				p := pass.Fset.Position(step.pos)
				frames[len(frames)-1] += fmt.Sprintf(" (%s:%d)", shortFile(p.Filename), p.Line)
			}
			break
		}
		lf = funcs[step.via]
	}
	return strings.Join(frames, " -> ")
}

// shortFile trims a path to its last two segments for witness rendering.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

// loEdges derives the acquisition-graph edges: for every held interval of
// class A, a nested direct acquisition of B, or a call whose callee may
// acquire B, yields A -> B. Edges are deduplicated on (A, B), keeping the
// first witness in deterministic order.
func loEdges(pass *Pass, funcs map[*types.Func]*loFunc) []loEdge {
	var edges []loEdge
	seen := map[[2]string]bool{}
	add := func(from, to string, pos token.Pos, chain string) {
		if from == to {
			return // re-acquisition of one class is recursion, not ordering
		}
		k := [2]string{from, to}
		if seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, loEdge{from: from, to: to, pos: pos, chain: chain})
	}
	for _, fn := range pass.funcs {
		lf := funcs[fn.obj]
		if len(lf.intervals) == 0 {
			continue
		}
		for _, iv := range lf.intervals {
			if iv.class == "" {
				continue
			}
			for _, lk := range lf.locks {
				if lk.pos > iv.from && lk.pos < iv.to {
					p := pass.Fset.Position(lk.pos)
					add(iv.class, lk.class, lk.pos,
						fmt.Sprintf("%s (%s:%d)", funcDisplay(lf.obj), shortFile(p.Filename), p.Line))
				}
			}
			for _, c := range lf.calls {
				if c.pos <= iv.from || c.pos >= iv.to {
					continue
				}
				callee := funcs[c.callee]
				if callee == nil {
					continue
				}
				classes := make([]string, 0, len(callee.acquires))
				for class := range callee.acquires {
					classes = append(classes, class)
				}
				sort.Strings(classes)
				for _, class := range classes {
					chain := funcDisplay(lf.obj) + " -> " + loChain(pass, funcs, callee, class)
					add(iv.class, class, c.pos, chain)
				}
			}
		}
	}
	return edges
}

// loReportCycles finds cycles in the deduplicated edge graph and reports one
// finding per strongly-connected component, with every in-cycle edge's
// witness chain printed. The classic two-lock inversion (A -> B and B -> A)
// therefore prints both witness call chains in one diagnostic.
func loReportCycles(pass *Pass, edges []loEdge) {
	adj := map[string][]loEdge{}
	nodes := map[string]bool{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
		nodes[e.from], nodes[e.to] = true, true
	}
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	comp := loSCC(sorted, adj)
	// Group nodes by component (in sorted node order, so member lists come
	// out sorted); a component with a cycle has >1 member (self-edges are
	// excluded at edge construction).
	members := map[int][]string{}
	for _, n := range sorted {
		members[comp[n]] = append(members[comp[n]], n)
	}
	compIDs := make([]int, 0, len(members))
	for c := range members {
		if len(members[c]) > 1 {
			compIDs = append(compIDs, c)
		}
	}
	sort.Ints(compIDs)
	for _, c := range compIDs {
		ms := members[c]
		inCycle := map[string]bool{}
		for _, n := range ms {
			inCycle[n] = true
		}
		var cyc []loEdge
		for _, e := range edges { // deterministic: discovery order
			if inCycle[e.from] && inCycle[e.to] && comp[e.from] == comp[e.to] {
				cyc = append(cyc, e)
			}
		}
		if len(cyc) == 0 {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "potential deadlock: lock-order cycle among %s;", strings.Join(ms, ", "))
		for i, e := range cyc {
			if i > 0 {
				b.WriteString(";")
			}
			fmt.Fprintf(&b, " %s -> %s via %s", e.from, e.to, e.chain)
		}
		pass.Reportf(cyc[0].pos, "%s", b.String())
	}
}

// loSCC is Tarjan's strongly-connected-components algorithm over the class
// graph, iterative-free (the graph is tiny) and deterministic: roots and
// neighbors are visited in sorted order, and component IDs are assigned in
// completion order.
func loSCC(nodes []string, adj map[string][]loEdge) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, nComp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			w := e.to
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for _, v := range nodes {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}
	return comp
}
