// Package incumbentwrite protects the monotone incumbent protocol.
//
// Bounds pushed into a running search by the distributed tier are
// harmless whenever they arrive because the shared incumbent bound only
// ever rises, and only through bench.AtomicIncumbent's CAS-max Offer. Two things would silently break that: code inside the
// bench package touching the underlying atomic state from outside the
// type's own methods (a plain Store can lower the bound), and code
// anywhere copying or overwriting an AtomicIncumbent value (a copy
// forks the bound; an overwrite resets it mid-search). This analyzer
// forbids both — incumbent values are shared by pointer and mutated
// only through the Incumbent interface and Offer.
package incumbentwrite

import (
	"go/ast"
	"go/types"

	"rooftune/internal/lint/analysis"
	"rooftune/internal/lint/scope"
)

// Analyzer is the incumbentwrite invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "incumbentwrite",
	Doc: "incumbent bounds are mutated only through the monotone Incumbent protocol\n\n" +
		"AtomicIncumbent state may be touched only by its own methods; the value is\n" +
		"shared by pointer and never copied or overwritten wholesale.",
	Run: run,
}

// incumbentType and its declaring package suffix.
const (
	incumbentType = "AtomicIncumbent"
	benchPackage  = "internal/bench"
)

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			inspectFunc(pass, fn)
		}
	}
	return nil, nil
}

// inspectFunc checks one function body. Field access to the incumbent's
// state is sanctioned only inside the type's own methods and its
// constructor.
func inspectFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	sanctioned := isIncumbentMethod(pass, fn) || fn.Name.Name == "New"+incumbentType
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sanctioned {
				return true
			}
			sel := pass.TypesInfo.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			if isIncumbent(derefNamed(sel.Recv())) {
				pass.Reportf(n.Pos(),
					"direct access to %s.%s outside the type's own methods: mutate the bound only through Offer",
					incumbentType, n.Sel.Name)
			}
		case *ast.StarExpr:
			tv := pass.TypesInfo.Types[n]
			if tv.IsValue() && isIncumbent(namedOf(tv.Type)) {
				pass.Reportf(n.Pos(),
					"dereference of *%s copies or overwrites the shared bound: incumbents are shared by pointer and mutated only via Offer",
					incumbentType)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, isStar := lhs.(*ast.StarExpr); isStar {
					continue // already reported as a dereference
				}
				if tv := pass.TypesInfo.Types[lhs]; tv.IsValue() && isIncumbent(namedOf(tv.Type)) {
					pass.Reportf(lhs.Pos(),
						"assignment overwrites an %s value: the bound must only rise through Offer",
						incumbentType)
				}
			}
		}
		return true
	})
}

// isIncumbentMethod reports whether fn is declared on AtomicIncumbent.
func isIncumbentMethod(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	t := pass.TypesInfo.Types[fn.Recv.List[0].Type].Type
	return isIncumbent(derefNamed(t))
}

// derefNamed unwraps one pointer level and returns the named type, if
// any.
func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return namedOf(t)
}

func namedOf(t types.Type) *types.Named {
	named, _ := t.(*types.Named)
	return named
}

// isIncumbent reports whether named is the bench AtomicIncumbent (or a
// fixture standing in for it under the scope suffix rule).
func isIncumbent(named *types.Named) bool {
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == incumbentType && obj.Pkg() != nil && scope.Match(obj.Pkg().Path(), benchPackage)
}
