// Package lockorder machine-checks the serving tier's mutex discipline:
// a consistent intra-package lock acquisition order, and no blocking
// operations while a lock is held.
//
// internal/serve and its subpackages (admit, jobs, cache, metrics) each hold
// one or more mutexes, and internal/parallel guards its pool lifecycle
// with another; PR 7 made them all load-bearing under concurrent HTTP
// traffic. Deadlocks need two ingredients: inconsistent acquisition
// order between two locks, or a lock held across an operation that can
// block indefinitely (channel send/receive, select, WaitGroup join).
// This analyzer infers both from the syntax: it records, per package,
// every "lock B acquired while A is held" edge and reports every edge
// that participates in a cycle; and it flags channel operations,
// defaultless selects and WaitGroup joins executed with a lock held.
// The analysis is intraprocedural and linear per function — goroutine
// bodies start with an empty lock set, branches are scanned with a copy
// — which is exactly as clever as the invariant needs: the sanctioned
// exceptions (a send into a drained channel under the close lock) carry
// a //rooflint:allow lockorder annotation with their justification.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"rooftune/internal/lint/analysis"
	"rooftune/internal/lint/scope"
)

// Analyzer is the lockorder invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "consistent mutex acquisition order; no blocking operations while a lock is held\n\n" +
		"In internal/serve/... and internal/parallel, two locks must always be taken in\n" +
		"the same order, and channel ops/selects/WaitGroup joins must not run under a\n" +
		"lock; annotate sanctioned exceptions with //rooflint:allow lockorder.",
	Run: run,
}

// lockedPackages is the analyzer's scope: every package that holds a
// mutex on the serving path (fixtures mirror the suffixes).
var lockedPackages = []string{
	"internal/serve",
	"internal/serve/admit",
	"internal/serve/jobs",
	"internal/serve/cache",
	"internal/serve/metrics",
	"internal/parallel",
	"internal/dist",
}

// acquisition records one "to acquired while from held" observation.
type acquisition struct {
	from, to string
	pos      token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Match(pass.Pkg.Path(), lockedPackages...) {
		return nil, nil
	}
	w := &walker{pass: pass}
	for _, f := range pass.Files {
		// Test files are exempt: tests serialize goroutines with ad-hoc
		// channels and mutexes whose ordering is not the production
		// discipline.
		if inTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.block(fd.Body.List, nil)
			}
		}
	}

	// An edge A->B is a finding iff some chain of edges leads from B
	// back to A: the orderings are then inconsistent and two goroutines
	// can deadlock. Every edge on a cycle is reported, at each site.
	adj := map[string]map[string]bool{}
	for _, a := range w.edges {
		if adj[a.from] == nil {
			adj[a.from] = map[string]bool{}
		}
		adj[a.from][a.to] = true
	}
	sort.Slice(w.edges, func(i, j int) bool { return w.edges[i].pos < w.edges[j].pos })
	for _, a := range w.edges {
		if reaches(adj, a.to, a.from, map[string]bool{}) {
			pass.Reportf(a.pos,
				"lock %s acquired while holding %s, but another path acquires them in the reverse order; pick one order (or annotate //rooflint:allow lockorder with the reason it cannot deadlock)",
				a.to, a.from)
		}
	}
	return nil, nil
}

// reaches reports whether "from" can reach "to" along acquisition edges.
func reaches(adj map[string]map[string]bool, from, to string, seen map[string]bool) bool {
	if from == to {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	next := make([]string, 0, len(adj[from]))
	for n := range adj[from] {
		next = append(next, n)
	}
	sort.Strings(next)
	for _, n := range next {
		if reaches(adj, n, to, seen) {
			return true
		}
	}
	return false
}

// walker scans statement lists linearly, tracking the ordered set of
// held locks. Branch bodies are scanned with a copy of the held set;
// goroutine bodies and function literals start empty (they run in their
// own context).
type walker struct {
	pass  *analysis.Pass
	edges []acquisition
}

// block scans stmts with the given held set and returns the held set at
// the end of the straight-line path.
func (w *walker) block(stmts []ast.Stmt, held []string) []string {
	for _, stmt := range stmts {
		held = w.stmt(stmt, held)
	}
	return held
}

func (w *walker) stmt(stmt ast.Stmt, held []string) []string {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.expr(e, held)
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.expr(e, held)
		}
		return held
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to function end on this
		// path — exactly what linear scanning already models by not
		// popping it. Deferred calls other than unlocks run after the
		// scan's horizon; skip them.
		return held
	case *ast.GoStmt:
		// The spawned goroutine holds nothing at birth.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.block(fl.Body.List, nil)
		}
		for _, arg := range s.Call.Args {
			held = w.expr(arg, held)
		}
		return held
	case *ast.SendStmt:
		w.blockingOp(s.Arrow, "channel send", held)
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.expr(s.Cond, held)
		w.block(s.Body.List, append([]string(nil), held...))
		if s.Else != nil {
			w.stmt(s.Else, append([]string(nil), held...))
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.expr(s.Cond, held)
		}
		w.block(s.Body.List, append([]string(nil), held...))
		return held
	case *ast.RangeStmt:
		held = w.expr(s.X, held)
		w.block(s.Body.List, append([]string(nil), held...))
		return held
	case *ast.BlockStmt:
		return w.block(s.List, held)
	case *ast.SelectStmt:
		blocking := true
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				blocking = false // a default clause makes the select a poll
			}
		}
		if blocking {
			w.blockingOp(s.Select, "select", held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.block(cc.Body, append([]string(nil), held...))
			}
		}
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.block(cc.Body, append([]string(nil), held...))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.block(cc.Body, append([]string(nil), held...))
			}
		}
		return held
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	default:
		return held
	}
}

// expr scans an expression for lock operations, blocking operations and
// nested function literals, returning the updated held set.
func (w *walker) expr(e ast.Expr, held []string) []string {
	switch x := e.(type) {
	case *ast.CallExpr:
		for _, arg := range x.Args {
			held = w.expr(arg, held)
		}
		if id, op, ok := w.mutexOp(x); ok {
			switch op {
			case "Lock", "RLock":
				for _, h := range held {
					if h == id {
						w.pass.Reportf(x.Pos(), "lock %s acquired while already held on this path: self-deadlock", id)
						return held
					}
					w.edges = append(w.edges, acquisition{from: h, to: id, pos: x.Pos()})
				}
				return append(held, id)
			case "Unlock", "RUnlock":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == id {
						return append(append([]string(nil), held[:i]...), held[i+1:]...)
					}
				}
				return held
			}
		}
		if w.isWaitGroupWait(x) {
			w.blockingOp(x.Pos(), "sync.WaitGroup.Wait", held)
		}
		if fl, ok := x.Fun.(*ast.FuncLit); ok {
			w.block(fl.Body.List, append([]string(nil), held...))
		}
		return held
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			w.blockingOp(x.OpPos, "channel receive", held)
		}
		return w.expr(x.X, held)
	case *ast.BinaryExpr:
		held = w.expr(x.X, held)
		return w.expr(x.Y, held)
	case *ast.ParenExpr:
		return w.expr(x.X, held)
	case *ast.FuncLit:
		// A literal that is stored rather than called runs later, in an
		// unknown context: scan it with nothing held.
		w.block(x.Body.List, nil)
		return held
	default:
		return held
	}
}

// blockingOp reports every held lock at a potentially-blocking
// operation.
func (w *walker) blockingOp(pos token.Pos, what string, held []string) {
	for _, h := range held {
		w.pass.Reportf(pos,
			"%s while holding %s: a blocked holder stalls every other acquirer (annotate //rooflint:allow lockorder if the operation provably cannot block)",
			what, h)
	}
}

// mutexOp classifies a call as a sync.Mutex/RWMutex lock operation and
// returns the lock's identity: the owning named type and field
// ("jobs.Job.mu"), or the package-qualified variable for a free mutex.
func (w *walker) mutexOp(call *ast.CallExpr) (id, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	obj := w.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := obj.(*types.Func).Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	if named := namedOf(recv.Type()); named == nil ||
		(named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", "", false
	}
	return w.lockID(sel.X), method, true
}

// lockID renders the lock's stable identity from the receiver
// expression of the Lock/Unlock call.
func (w *walker) lockID(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		// j.mu, p.closeMu, ... : identity is the owning type + field,
		// so every instance of the type shares one ordering node.
		if t := w.pass.TypesInfo.Types[x.X].Type; t != nil {
			if named := namedOf(t); named != nil {
				return fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Name(), named.Obj().Name(), x.Sel.Name)
			}
		}
		return x.Sel.Name
	case *ast.Ident:
		// A bare mutex variable; package-level ones get a stable
		// qualified name, locals stay function-scoped by name.
		if obj := w.pass.TypesInfo.Uses[x]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + x.Name
			}
		}
		return x.Name
	default:
		// An embedded mutex locked through its owner (x.Lock()) or an
		// anonymous expression: fall back to the expression's type.
		if t := w.pass.TypesInfo.Types[e].Type; t != nil {
			if named := namedOf(t); named != nil {
				return fmt.Sprintf("(%s.%s)", named.Obj().Pkg().Name(), named.Obj().Name())
			}
		}
		return "lock"
	}
}

// isWaitGroupWait reports a call of (*sync.WaitGroup).Wait.
func (w *walker) isWaitGroupWait(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	obj := w.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	recv := obj.(*types.Func).Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	return named != nil && named.Obj().Name() == "WaitGroup"
}

// namedOf strips pointers down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	name := fset.Position(pos).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
