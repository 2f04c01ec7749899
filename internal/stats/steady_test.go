package stats

import (
	"math"
	"testing"

	"rooftune/internal/xrand"
)

func TestSteadyDetectorConstantStream(t *testing.T) {
	d := NewSteadyDetector(5, 0.02)
	for i := 0; i < 4; i++ {
		if d.Add(10) {
			t.Fatalf("steady before window filled at %d", i)
		}
	}
	if !d.Add(10) {
		t.Fatal("constant stream must be steady once the window fills")
	}
	if !d.Steady() {
		t.Fatal("Steady() must latch")
	}
}

func TestSteadyDetectorRamp(t *testing.T) {
	// A warm-up ramp (the paper's §III-C4 scenario): values climb toward
	// 100. The detector must hold off during the climb and fire after.
	d := NewSteadyDetector(8, 0.02)
	firedAt := -1
	for i := 0; i < 200; i++ {
		v := 100 * (1 - 0.4*math.Exp(-float64(i)/10))
		if d.Add(v) && firedAt < 0 {
			firedAt = i
		}
	}
	if firedAt < 0 {
		t.Fatal("ramp never declared steady")
	}
	if firedAt < 15 {
		t.Fatalf("declared steady at %d, during the ramp", firedAt)
	}
	if firedAt > 80 {
		t.Fatalf("declared steady only at %d, far past the ramp", firedAt)
	}
}

func TestSteadyDetectorLatches(t *testing.T) {
	d := NewSteadyDetector(3, 0.05)
	for i := 0; i < 3; i++ {
		d.Add(1)
	}
	if !d.Steady() {
		t.Fatal("setup")
	}
	// Even a wild sample cannot un-latch (one-shot decision).
	if !d.Add(1e9) {
		t.Fatal("detector must stay steady once declared")
	}
}

func TestSteadyDetectorNoisyNeverSteady(t *testing.T) {
	rng := xrand.New(77)
	d := NewSteadyDetector(10, 0.01)
	fired := false
	for i := 0; i < 500; i++ {
		// 30% CoV noise can never pass a 1% threshold.
		if d.Add(100 + 30*rng.Normal()) {
			fired = true
		}
	}
	if fired {
		t.Fatal("high-variance stream must not be declared steady at 1%")
	}
}

func TestSteadyDetectorDefaults(t *testing.T) {
	d := NewSteadyDetector(0, 0)
	if d.Window != 10 || d.Threshold != 0.02 {
		t.Fatalf("defaults: %+v", d)
	}
}

func TestLag1Autocorrelation(t *testing.T) {
	// Alternating series: strong negative lag-1 correlation.
	alt := make([]float64, 100)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	if r := Lag1Autocorrelation(alt); r > -0.8 {
		t.Fatalf("alternating series lag-1 = %v, want strongly negative", r)
	}
	// Slowly ramping series: strong positive correlation.
	ramp := make([]float64, 100)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if r := Lag1Autocorrelation(ramp); r < 0.9 {
		t.Fatalf("ramp lag-1 = %v, want ~1", r)
	}
	// Independent noise: near zero.
	rng := xrand.New(11)
	noise := make([]float64, 5000)
	for i := range noise {
		noise[i] = rng.Normal()
	}
	if r := Lag1Autocorrelation(noise); math.Abs(r) > 0.05 {
		t.Fatalf("white noise lag-1 = %v, want ~0", r)
	}
	if Lag1Autocorrelation([]float64{1, 2}) != 0 {
		t.Fatal("n<3 must return 0")
	}
	if Lag1Autocorrelation([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("zero variance must return 0")
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	// Independent samples: ESS == n.
	if got := EffectiveSampleSize(100, 0); got != 100 {
		t.Fatalf("ESS(rho=0) = %v", got)
	}
	// Positive correlation shrinks, negative grows (clamped to n).
	if got := EffectiveSampleSize(100, 0.5); math.Abs(got-100.0/3) > 1e-9 {
		t.Fatalf("ESS(rho=0.5) = %v, want 33.3", got)
	}
	if got := EffectiveSampleSize(100, -0.5); got != 100 {
		t.Fatalf("ESS(rho=-0.5) = %v, want clamp at n", got)
	}
	// Degenerate cases.
	if EffectiveSampleSize(0, 0) != 0 {
		t.Fatal("n=0")
	}
	if EffectiveSampleSize(100, 1) != 1 {
		t.Fatal("rho=1 must collapse to 1")
	}
	if EffectiveSampleSize(100, 0.9999) < 1 {
		t.Fatal("ESS must clamp at 1")
	}
}
