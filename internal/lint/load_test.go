package lint

import (
	"strings"
	"testing"
)

// TestLoadTypeChecksWithTests loads a real project package and checks
// the contract the analyzers rely on: the in-package test variant is
// what gets analyzed (test files present), the scope path is the plain
// import path, and type information resolves through export data.
func TestLoadTypeChecksWithTests(t *testing.T) {
	pkgs, err := Load("../..", "./internal/bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != "rooftune/internal/bench" {
		t.Fatalf("path = %q", pkg.Path)
	}
	var haveTest bool
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			haveTest = true
		}
	}
	if !haveTest {
		t.Error("test files missing: the test variant was not selected")
	}
	if pkg.Types.Scope().Lookup("Config") == nil {
		t.Error("bench.Config not found in type-checked scope")
	}
	if obj := pkg.Types.Scope().Lookup("NewEvaluator"); obj == nil {
		t.Error("bench.NewEvaluator not found")
	}
}

// TestLoadMultiplePackages loads a package whose dependencies span the
// module and the standard library, proving export-data importing works
// for both.
func TestLoadMultiplePackages(t *testing.T) {
	pkgs, err := Load("../..", "./internal/sweep", "./internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
}
