package workload

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

type fake struct{ name string }

func (f fake) Name() string                      { return f.name }
func (f fake) Plan(Target, Params) (Plan, error) { return Plan{}, nil }

// regSeq numbers TestRegistry's workloads: the registry is
// process-global, so each invocation (-count=N) registers a fresh name.
var regSeq atomic.Int64

func TestRegistry(t *testing.T) {
	name := fmt.Sprintf("reg-%d", regSeq.Add(1))
	if err := Register(fake{name: name}); err != nil {
		t.Fatal(err)
	}
	if err := Register(fake{name: name}); err == nil {
		t.Fatal("duplicate name must error")
	}
	if err := Register(nil); err == nil {
		t.Fatal("nil workload must error")
	}
	if err := Register(fake{}); err == nil {
		t.Fatal("empty name must error")
	}

	w, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != name {
		t.Fatalf("Get returned %q", w.Name())
	}
	if _, err := Get("reg-missing"); err == nil || !strings.Contains(err.Error(), "reg-missing") {
		t.Fatalf("unknown lookup error must name the workload, got %v", err)
	}

	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	found := false
	for _, n := range names {
		found = found || n == name
	}
	if !found {
		t.Fatalf("registered name missing from %v", names)
	}
}

func TestPlanHelpers(t *testing.T) {
	var p Plan
	p.Warnf("region %s empty", "L3")
	if len(p.Warnings) != 1 || p.Warnings[0] != "region L3 empty" {
		t.Fatalf("warnings: %v", p.Warnings)
	}
}
