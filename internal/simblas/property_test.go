package simblas

import (
	"testing"
	"testing/quick"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/simnoise"
)

// invocation streams invocation inv of a DGEMM configuration the way the
// bench layer does: one Point per configuration, one Stream per
// invocation.
func invocation(m *Model, n, mm, k, sockets, inv int, seed uint64) (simnoise.Point, *simnoise.Stream) {
	p := m.Point(n, mm, k, sockets)
	var s simnoise.Stream
	s.Reset(&p, Seed(seed, n, mm, k, sockets, inv))
	return p, &s
}

func TestEffBoundedForArbitraryDims(t *testing.T) {
	// The response surface must stay in (0, 1] for any positive input,
	// on every calibrated system and socket count.
	models := make([]*Model, 0, 4)
	for _, sys := range hw.IdunSystems() {
		models = append(models, NewModel(sys))
	}
	f := func(nRaw, mRaw, kRaw uint16, s uint8) bool {
		n := int(nRaw)%16384 + 1
		m := int(mRaw)%16384 + 1
		k := int(kRaw)%8192 + 1
		sockets := int(s)%2 + 1
		for _, model := range models {
			eff := model.SteadyEff(n, m, k, sockets)
			if eff <= 0 || eff > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestStepTimesPositiveAndFinite(t *testing.T) {
	m := NewModel(hw.IdunE52695v4)
	f := func(nRaw, mRaw, kRaw uint16, inv uint8, seed uint64) bool {
		n := int(nRaw)%4096 + 1
		mm := int(mRaw)%4096 + 1
		k := int(kRaw)%2048 + 1
		p, si := invocation(m, n, mm, k, 2, int(inv), seed)
		if p.Setup <= 0 || si.Warmup() <= 0 {
			return false
		}
		for i := 0; i < 5; i++ {
			d := si.Step()
			if d < time.Microsecond || d > time.Hour {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanTimeTracksWork(t *testing.T) {
	// Doubling k roughly doubles the step time (same efficiency regime):
	// the simulator's cost model scales with FLOPs, the property Fig. 6
	// depends on.
	m := NewModel(hw.IdunGold6148)
	avg := func(k int) float64 {
		_, si := invocation(m, 2000, 2048, k, 1, 0, 9)
		si.Warmup()
		var total time.Duration
		const n = 50
		for i := 0; i < n; i++ {
			total += si.Step()
		}
		return total.Seconds() / n
	}
	t512, t1024 := avg(512), avg(1024)
	ratio := t1024 / t512
	if ratio < 1.6 || ratio > 2.6 {
		t.Fatalf("doubling k scaled time by %.2f, want ~2 (modulo efficiency shift)", ratio)
	}
}

func TestRampCompensationBudget(t *testing.T) {
	// The 2695v4 calibration encodes steady efficiencies above the
	// Table IV values to compensate the warm-up ramp; the compensation
	// must stay small (< 2%) and the steady value physical (< 1).
	m := NewModel(hw.IdunE52695v4)
	for _, sockets := range []int{1, 2} {
		p := m.ParamsFor(sockets)
		if p.TargetEff >= 1 {
			t.Fatalf("S%d steady efficiency %.4f not physical", sockets, p.TargetEff)
		}
		paper := map[int]float64{1: 0.9806, 2: 0.9193}[sockets]
		comp := p.TargetEff / paper
		if comp < 1.0 || comp > 1.02 {
			t.Fatalf("S%d ramp compensation %.4f out of the documented 0-2%% band", sockets, comp)
		}
	}
}
