package core

import (
	"testing"
	"time"
)

func TestTechniqueMatrix(t *testing.T) {
	// The Tables VIII-XI rows in paper order.
	names := []string{
		"Default",
		"Hand-tuned Time",
		"Hand-tuned Accuracy",
		"Single",
		"Confidence",
		"C+Inner",
		"C+Inner+R",
		"C+I+Outer",
		"C+I+O+R",
	}
	techs := Techniques("2650v4", 2)
	if len(techs) != len(names) {
		t.Fatalf("technique count %d", len(techs))
	}
	byName := map[string]Technique{}
	for i, tech := range techs {
		if tech.Name != names[i] {
			t.Fatalf("technique order: %q at %d", tech.Name, i)
		}
		byName[tech.Name] = tech
	}

	def := byName["Default"]
	if def.Budget.UseConfidence || def.Budget.UseInnerBound || def.Budget.UseOuterBound {
		t.Fatal("Default must be the fixed-sample technique")
	}
	if def.Budget.Invocations != 10 || def.Budget.MaxIterations != 200 {
		t.Fatal("Default must use Table I")
	}

	c := byName["Confidence"]
	if !c.Budget.UseConfidence || c.Budget.UseInnerBound || c.Budget.UseOuterBound {
		t.Fatal("Confidence = stop condition 3 only")
	}
	ci := byName["C+Inner"]
	if !ci.Budget.UseConfidence || !ci.Budget.UseInnerBound || ci.Budget.UseOuterBound {
		t.Fatal("C+Inner flags")
	}
	cio := byName["C+I+Outer"]
	if !cio.Budget.UseConfidence || !cio.Budget.UseInnerBound || !cio.Budget.UseOuterBound {
		t.Fatal("C+I+Outer flags")
	}
	if byName["C+Inner+R"].Order != OrderReverse || byName["C+I+O+R"].Order != OrderReverse {
		t.Fatal("R techniques must reverse the search")
	}
	if byName["C+Inner"].Order != OrderForward {
		t.Fatal("non-R techniques must search forward")
	}

	// Hand-tuned rows use Table VII's iteration counts with a single
	// invocation.
	ht := byName["Hand-tuned Time"]
	if ht.Budget.Invocations != 1 || ht.Budget.MaxIterations != 7 {
		t.Fatalf("Hand-tuned Time for 2650v4: %+v", ht.Budget)
	}
	ha := byName["Hand-tuned Accuracy"]
	if ha.Budget.MaxIterations != 20 {
		t.Fatalf("Hand-tuned Accuracy for 2650v4: %+v", ha.Budget)
	}
	single := byName["Single"]
	if single.Budget.Invocations != 1 || single.Budget.MaxIterations != 1 {
		t.Fatal("Single = one invocation, one iteration")
	}
	if single.Budget.MaxTime < time.Minute {
		t.Fatal("Single must not be time-capped")
	}
}

func TestTechniquesMinCount(t *testing.T) {
	for _, tech := range Techniques("2695v4", 100) {
		switch tech.Name {
		case "C+Inner", "C+Inner+R", "C+I+Outer", "C+I+O+R", "Confidence":
			if tech.Budget.MinCount != 100 {
				t.Errorf("%s: MinCount = %d, want 100", tech.Name, tech.Budget.MinCount)
			}
		}
	}
}

func TestHandTunedTableVII(t *testing.T) {
	want := map[string]HandTunedIters{
		"2650v4":    {7, 20},
		"2695v4":    {15, 180},
		"Gold 6132": {18, 180},
		"Gold 6148": {30, 150},
	}
	for sys, w := range want {
		if HandTuned[sys] != w {
			t.Errorf("Table VII for %s: %+v, want %+v", sys, HandTuned[sys], w)
		}
	}
}

func TestHandTunedFallback(t *testing.T) {
	techs := Techniques("unknown-system", 2)
	for _, tech := range techs {
		if tech.Name == "Hand-tuned Time" && tech.Budget.MaxIterations != 10 {
			t.Fatalf("unknown system fallback: %+v", tech.Budget)
		}
	}
}

func TestTechniqueByName(t *testing.T) {
	tech, ok := TechniqueByName("Gold 6148", "C+I+Outer", 2)
	if !ok || tech.Name != "C+I+Outer" {
		t.Fatal("TechniqueByName lookup")
	}
	if _, ok := TechniqueByName("Gold 6148", "nope", 2); ok {
		t.Fatal("unknown technique must return false")
	}
}
