// Package nodeterminism keeps nondeterministic time and randomness out
// of the measurement and tuner packages.
//
// The repository's reproducibility claim — same seed, bit-identical
// sweep results — holds because every simulated measurement flows
// through internal/vclock (virtual time) and internal/xrand (seeded,
// stream-splittable randomness). A stray time.Now or math/rand draw in
// internal/core, internal/sweep, internal/bench, the simulator models
// or the experiment drivers silently re-introduces wall-clock and
// global-RNG state. This analyzer forbids the raw primitives in those
// packages; genuinely out-of-band uses (wall-clock campaign metadata,
// test synchronization against real goroutines) carry a
// //rooflint:allow nodeterminism annotation at the site.
package nodeterminism

import (
	"go/ast"
	"go/types"
	"strconv"

	"rooftune/internal/lint/analysis"
	"rooftune/internal/lint/scope"
)

// Analyzer is the nodeterminism invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc: "no raw time.Now/time.Since/math/rand in measurement and tuner packages\n\n" +
		"Deterministic packages must draw time from internal/vclock and randomness\n" +
		"from internal/xrand; annotate genuinely out-of-band sites with\n" +
		"//rooflint:allow nodeterminism.",
	Run: run,
}

// deterministicPackages is the analyzer's scope: the packages whose
// behavior must replay bit-identically from a seed. The sanctioned
// wrappers internal/vclock and internal/xrand are deliberately outside
// it — they are where the raw primitives are allowed to live.
var deterministicPackages = []string{
	"rooftune",
	"internal/core",
	"internal/sweep",
	"internal/bench",
	"internal/simblas",
	"internal/simnoise",
	"internal/simspmv",
	"internal/simstencil",
	"internal/simstream",
	"internal/experiments",
}

// forbiddenTime are the wall-clock entry points of package time. Types
// and constants (time.Duration, time.Second) stay usable; only the
// functions that read or wait on the real clock are banned.
var forbiddenTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Match(pass.Pkg.Path(), deterministicPackages...) {
		return nil, nil
	}
	for _, f := range pass.Files {
		// A math/rand import is reported once, at the import: its global
		// generator is nondeterministic state however it is reached
		// (including via a dot import), and every use requires it.
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in deterministic package %s: use the seeded, stream-splittable internal/xrand instead",
					path, pass.Pkg.Path())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only package-qualified references count: t.After(u) is the
			// deterministic time.Time method, time.After(d) the real timer.
			qual, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if _, isPkg := pass.TypesInfo.Uses[qual].(*types.PkgName); !isPkg {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if obj.Pkg().Path() == "time" && forbiddenTime[obj.Name()] {
				pass.Reportf(sel.Pos(),
					"time.%s in deterministic package %s: draw time from internal/vclock (or annotate //rooflint:allow nodeterminism for out-of-band uses)",
					obj.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil, nil
}
