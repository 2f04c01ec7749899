// Command rooflint is the project's static-analysis suite: a
// multichecker over the analyzers in internal/lint that machine-checks
// the invariants the reproduction's trustworthiness rests on —
// exhaustive bench.Config handling, deterministic time and randomness
// on the measurement path, pooled concurrency, context-first blocking
// APIs, the committed API-surface and wire-schema goldens, the serving
// tier's lock discipline, and the hot paths' no-allocation discipline.
//
//	go run ./cmd/rooflint ./...               # lint the tree (CI runs this)
//	go run ./cmd/rooflint -list               # print the registered analyzers
//	go run ./cmd/rooflint -write-goldens ./...# regenerate api/*.txt goldens
//	go run ./cmd/rooflint -github ./...       # findings as ::error annotations
//	go run ./cmd/rooflint -json ./...         # findings as a JSON array
//
// Findings print as file:line:col: analyzer: message. Exit codes are
// part of the contract: 0 is a clean tree, 1 means findings, 2 means
// the tree failed to load or type-check (or rooflint itself failed) —
// so CI can distinguish "invariant broken" from "build broken".
// Sanctioned exceptions are annotated in the source with
// //rooflint:allow <analyzers> -- <justification>; see README "Static
// analysis".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rooftune/internal/lint"
	"rooftune/internal/lint/analysis"
	"rooftune/internal/lint/apisurface"
	"rooftune/internal/lint/configsum"
	"rooftune/internal/lint/ctxfirst"
	"rooftune/internal/lint/golden"
	"rooftune/internal/lint/lockorder"
	"rooftune/internal/lint/noalloc"
	"rooftune/internal/lint/nodeterminism"
	"rooftune/internal/lint/nogoroutine"
	"rooftune/internal/lint/wirecompat"
)

// Exit codes; the CI workflow and scripts/apicheck.sh rely on the
// distinction.
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

// analyzers is the registry; -list prints it, so the usage text can
// never drift from what actually runs (mirroring rooftool -workloads).
var analyzers = []*analysis.Analyzer{
	apisurface.Analyzer,
	configsum.Analyzer,
	ctxfirst.Analyzer,
	lockorder.Analyzer,
	noalloc.Analyzer,
	nodeterminism.Analyzer,
	nogoroutine.Analyzer,
	wirecompat.Analyzer,
}

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "print the registered analyzers with their invariants and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	asGitHub := flag.Bool("github", false, "emit findings as GitHub ::error annotations")
	writeGoldens := flag.Bool("write-goldens", false, "regenerate the api/*.txt goldens instead of checking them")
	tags := flag.String("tags", "", "comma-separated build tags passed to go list")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: rooflint [-list] [-json|-github] [-write-goldens] [-tags list] [packages]\n\nAnalyzers:\n%s\nPackages default to ./... resolved in the current directory.\nExit codes: %d clean, %d findings, %d load/type-check error.\n",
			analyzerTable(), exitClean, exitFindings, exitError)
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		fmt.Print(analyzerTable())
		return exitClean
	}
	golden.WriteMode = *writeGoldens

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadTags(".", *tags, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rooflint:", err)
		return exitError
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rooflint:", err)
		return exitError
	}

	switch {
	case *asJSON:
		if err := emitJSON(diags); err != nil {
			fmt.Fprintln(os.Stderr, "rooflint:", err)
			return exitError
		}
	case *asGitHub:
		emitGitHub(diags)
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rooflint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return exitFindings
	}
	return exitClean
}

// findingJSON is the -json element schema, stable for tooling.
type findingJSON struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func emitJSON(diags []lint.Diag) error {
	out := make([]findingJSON, 0, len(diags))
	for _, d := range diags {
		out = append(out, findingJSON{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// emitGitHub renders findings as workflow commands, so the CI run
// annotates the offending lines in the pull-request diff. Newlines and
// the characters the command syntax reserves are percent-escaped per
// the workflow-command spec.
func emitGitHub(diags []lint.Diag) {
	escape := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	for _, d := range diags {
		fmt.Printf("::error file=%s,line=%d,col=%d,title=rooflint %s::%s\n",
			d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, escape.Replace(d.Message))
	}
}

// analyzerTable renders one line per registered analyzer: its name and
// the first sentence of its Doc.
func analyzerTable() string {
	var sb strings.Builder
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(&sb, "  %-15s %s\n", a.Name, doc)
	}
	return sb.String()
}
