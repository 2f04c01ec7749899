package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal/ declarations that may go
// without a caller outside their own package's tests, each with the
// reason it is kept.
var exportAllowlist = map[string]string{
	"rooftune/internal/stats.MannWhitneyU":          "the statistically gated micro-benchmark comparison (ROADMAP) decides with it",
	"rooftune/internal/experiments.PaperTable4Util": "the paper-fidelity scorecard (ROADMAP) scores Table IV against it",
}

// TestInternalExportsHaveCallers is the ratchet that keeps the internal
// surface from regrowing: every exported package-level func, var, const
// or type under rooftune/internal/ must be referenced, outside its own
// declaration and its own methods, by a non-test file or by a test file
// of another package. A name only its own package's tests call is a
// test helper that belongs in a _test.go file, or dead code. Methods are
// out of scope: interface satisfaction keeps a method alive with no
// caller in sight.
func TestInternalExportsHaveCallers(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark is a module of its own nested in this one.
	bench, err := Load("../../perfbench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs = append(pkgs, bench...)

	// self holds the source ranges whose references to a name do not
	// count: the name's own declaration and, for a type, its methods.
	type span struct{ from, to token.Pos }
	self := map[string][]span{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "rooftune/internal/") || strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			if isTestFile(pkg, f) {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						name = receiverType(d.Recv.List[0].Type)
					}
					if !ast.IsExported(name) {
						continue
					}
					key := pkg.Path + "." + name
					self[key] = append(self[key], span{d.Pos(), d.End()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var idents []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							idents = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							idents = s.Names
						}
						for _, id := range idents {
							if id.IsExported() {
								key := pkg.Path + "." + id.Name
								self[key] = append(self[key], span{s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, pkg := range pkgs {
		owner := strings.TrimSuffix(pkg.Path, "_test")
		for _, f := range pkg.Files {
			testFile := isTestFile(pkg, f)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pkg.Info.Uses[id]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
					return true
				}
				from := obj.Pkg().Path()
				if testFile && from == owner {
					return true
				}
				key := from + "." + obj.Name()
				for _, s := range self[key] {
					if s.from <= id.Pos() && id.Pos() < s.to {
						return true
					}
				}
				used[key] = true
				return true
			})
		}
	}

	var unused []string
	for key := range self {
		if _, ok := exportAllowlist[key]; !ok && !used[key] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s has no caller outside its own package's tests: delete it, or move it into a _test.go file", key)
	}
	for key := range exportAllowlist {
		if used[key] {
			t.Errorf("%s now has a caller: drop it from the allowlist", key)
		}
	}
}

func isTestFile(pkg *Package, f *ast.File) bool {
	return strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
}

// receiverType names a method receiver's base type: T for T, *T, T[P]
// and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
