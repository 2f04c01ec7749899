package hw

import (
	"math"
	"strings"
	"testing"

	"rooftune/internal/units"
)

func TestTableIIITheoreticalFlops(t *testing.T) {
	// Eq. 9 must reproduce the paper's Table III exactly (per socket).
	cases := []struct {
		sys  System
		want float64 // GFLOP/s single socket
	}{
		{IdunE52650v4, 422.4},
		{IdunE52695v4, 604.8},
		{IdunGold6132, 1164.8},
		{IdunGold6148, 1536},
	}
	for _, c := range cases {
		got := c.sys.TheoreticalFlops(1).GFLOPS()
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Ft = %v, want %v", c.sys.Name, got, c.want)
		}
		// Dual socket doubles.
		if got2 := c.sys.TheoreticalFlops(2).GFLOPS(); math.Abs(got2-2*c.want) > 1e-9 {
			t.Errorf("%s: Ft(2) = %v, want %v", c.sys.Name, got2, 2*c.want)
		}
	}
}

func TestTableIIITheoreticalBandwidth(t *testing.T) {
	// Eq. 11 per the paper's node-level convention: Table III prints the
	// node figure; single-socket runs are rated against half of it
	// (Table VI's percentages).
	cases := []struct {
		sys  System
		want float64 // GB/s node
	}{
		{IdunE52650v4, 76.8},
		{IdunE52695v4, 76.8},
		{IdunGold6132, 127.968},
		{IdunGold6148, 127.968},
	}
	for _, c := range cases {
		got := c.sys.TheoreticalBandwidth(c.sys.Sockets).GBps()
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Bt = %v, want %v", c.sys.Name, got, c.want)
		}
		if got1 := c.sys.TheoreticalBandwidth(1).GBps(); math.Abs(got1-c.want/2) > 1e-9 {
			t.Errorf("%s: Bt(1) = %v, want %v", c.sys.Name, got1, c.want/2)
		}
	}
}

func TestEq12Silver4110SinglePrecision(t *testing.T) {
	// Eq. 12: Ft = 2.1 * 8 * 32 * 1 * 2 = 1075.2 GFLOP/s (SP, 2 CPUs).
	got := Silver4110.TheoreticalFlopsSP(2).GFLOPS()
	if math.Abs(got-1075.2) > 1e-9 {
		t.Fatalf("Silver 4110 SP peak = %v, want 1075.2", got)
	}
}

func TestEq10AVX512DP(t *testing.T) {
	// Eq. 10: 512 bits * 2 ops / 8 bytes = 16 DP ops/cycle per unit.
	if got := AVX512.DPOpsPerCycle(); got != 16 {
		t.Fatalf("AVX512 DP ops/cycle = %v, want 16", got)
	}
	if got := AVX2.DPOpsPerCycle(); got != 8 {
		t.Fatalf("AVX2 DP ops/cycle = %v, want 8", got)
	}
	if got := SSE.DPOpsPerCycle(); got != 2 {
		t.Fatalf("SSE DP ops/cycle = %v, want 2 (no FMA)", got)
	}
	if got := AVX512.SPOpsPerCycle(); got != 32 {
		t.Fatalf("AVX512 SP ops/cycle = %v, want 32", got)
	}
}

func TestVectorNames(t *testing.T) {
	for v, want := range map[Vector]string{SSE: "SSE", AVX: "AVX", AVX2: "AVX2", AVX512: "AVX512"} {
		if v.String() != want {
			t.Errorf("Vector(%d).String() = %q", int(v), v.String())
		}
	}
	if Vector(99).Bits() != 0 {
		t.Error("unknown vector width must be 0")
	}
}

func TestSocketClamping(t *testing.T) {
	s := IdunE52650v4
	if s.Cores(0) != 12 || s.Cores(1) != 12 || s.Cores(2) != 24 || s.Cores(5) != 24 {
		t.Fatalf("core clamping broken: %d %d %d %d",
			s.Cores(0), s.Cores(1), s.Cores(2), s.Cores(5))
	}
	if s.L3Total(3) != 60*units.MiB {
		t.Fatalf("L3Total clamped = %v", s.L3Total(3))
	}
}

func TestValidate(t *testing.T) {
	good := IdunGold6148
	if err := good.Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	bads := []func(*System){
		func(s *System) { s.Name = "" },
		func(s *System) { s.FreqGHz = 0 },
		func(s *System) { s.CoresPerSocket = -1 },
		func(s *System) { s.FMAUnits = 0 },
		func(s *System) { s.Sockets = 0 },
		func(s *System) { s.DRAMFreqMHz = 0 },
		func(s *System) { s.DRAMChannels = 0 },
		func(s *System) { s.BytesPerCycle = 0 },
		func(s *System) { s.L3PerSocket = 0 },
	}
	for i, mutate := range bads {
		s := IdunGold6148
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: invalid system accepted", i)
		}
	}
}

func TestAffinity(t *testing.T) {
	if AffinityClose.String() != "close" || AffinitySpread.String() != "spread" {
		t.Fatal("affinity names")
	}
}

func TestRegistry(t *testing.T) {
	names := Known()
	for _, want := range []string{"2650v4", "2695v4", "Gold 6132", "Gold 6148", "Silver 4110"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Known() missing %q: %v", want, names)
		}
	}
	if _, err := Get("no-such-system"); err == nil {
		t.Fatal("Get of unknown system must fail")
	}
	custom := IdunGold6148
	custom.Name = "test-system"
	if err := Register(custom); err != nil {
		t.Fatal(err)
	}
	got, err := Get("test-system")
	if err != nil || got.Name != "test-system" {
		t.Fatalf("Get after Register: %v %v", got, err)
	}
	bad := custom
	bad.FreqGHz = 0
	if err := Register(bad); err == nil {
		t.Fatal("Register must validate")
	}
}

func TestIdunSystemsOrder(t *testing.T) {
	sys := IdunSystems()
	if len(sys) != 4 {
		t.Fatalf("IdunSystems: %d systems", len(sys))
	}
	want := []string{"2650v4", "2695v4", "Gold 6132", "Gold 6148"}
	for i, s := range sys {
		if s.Name != want[i] {
			t.Fatalf("Table II order: got %q at %d", s.Name, i)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", s.Name, err)
		}
	}
}

func TestSocketConfigs(t *testing.T) {
	dual := IdunGold6132
	if got := dual.SocketConfigs(); len(got) != 2 || got[0] != 1 || got[1] != dual.Sockets {
		t.Fatalf("dual-socket configs = %v", got)
	}
	single := dual
	single.Sockets = 1
	if got := single.SocketConfigs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("single-socket configs = %v", got)
	}
}

func TestSystemString(t *testing.T) {
	s := IdunGold6132.String()
	for _, frag := range []string{"Gold 6132", "AVX512", "2x14", "19.25 MiB"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q: %s", frag, s)
		}
	}
}

func TestPerLevelCacheTotals(t *testing.T) {
	s := IdunGold6148 // 20 cores/socket, 32 KiB L1, 1 MiB L2
	if got, want := s.L1Total(1), 20*32*units.KiB; got != want {
		t.Fatalf("L1Total(1) = %v, want %v", got, want)
	}
	if got, want := s.L2Total(2), 40*units.MiB; got != want {
		t.Fatalf("L2Total(2) = %v, want %v", got, want)
	}
	// Clamping follows Cores: out-of-range socket counts behave.
	if s.L1Total(0) != s.L1Total(1) || s.L2Total(99) != s.L2Total(2) {
		t.Fatal("per-level totals must clamp socket counts")
	}
	levels := CacheLevels()
	if len(levels) != 4 || levels[0] != "L1" || levels[3] != "DRAM" {
		t.Fatalf("CacheLevels() = %v", levels)
	}
}
