// Package nogoroutine keeps raw goroutine creation out of the tree.
//
// All production concurrency is supposed to flow through
// internal/parallel's pooled, cancellable, joined execution path — that
// is what makes cancellation leak-free and the determinism suites
// meaningful. A raw go statement anywhere else is either a missing use
// of the pool or a carefully documented structure (the sweep package's
// plan-graph dispatcher, the session's event drainer, the distributed
// tier's dispatch attempts and health probes), and the documented ones
// must say so in-line with a //rooflint:allow nogoroutine annotation
// whose justification names the join point. Test files are exempt:
// tests routinely spawn goroutines to exercise concurrency.
package nogoroutine

import (
	"go/ast"
	"strings"

	"rooftune/internal/lint/analysis"
	"rooftune/internal/lint/scope"
)

// Analyzer is the nogoroutine invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "no raw go statements outside internal/parallel\n\n" +
		"Concurrency flows through the pooled, cancellable path; a sanctioned\n" +
		"exception carries //rooflint:allow nogoroutine naming its join point.",
	Run: run,
}

// exemptPackages may spawn goroutines freely: internal/parallel is the
// pooled path itself.
var exemptPackages = []string{"internal/parallel"}

func run(pass *analysis.Pass) (any, error) {
	if scope.Match(pass.Pkg.Path(), exemptPackages...) {
		return nil, nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Go,
					"raw go statement in %s: route concurrency through internal/parallel, or annotate the documented join with //rooflint:allow nogoroutine",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil, nil
}
