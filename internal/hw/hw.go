// Package hw describes the hardware systems the paper benchmarks: clock
// frequencies, core counts, vector units, cache hierarchy, memory channels
// and socket topology (Table II), and derives the theoretical peak compute
// and bandwidth figures of Table III via Eqs. 9-11.
//
// The four Idun-cluster systems from the paper are predefined, together
// with the Intel Xeon Silver 4110 used for the comparison against Intel's
// own DGEMM tuning guide (§VI-A), and a generic builder for user-defined
// systems.
package hw

import (
	"fmt"
	"sort"
	"sync"

	"rooftune/internal/units"
)

// Vector identifies the widest SIMD instruction set of a core.
type Vector int

// Supported vector instruction sets.
const (
	SSE    Vector = iota // 128-bit
	AVX                  // 256-bit, no FMA
	AVX2                 // 256-bit with FMA
	AVX512               // 512-bit with FMA
)

// String returns the conventional name of the instruction set.
func (v Vector) String() string {
	switch v {
	case SSE:
		return "SSE"
	case AVX:
		return "AVX"
	case AVX2:
		return "AVX2"
	case AVX512:
		return "AVX512"
	default:
		return fmt.Sprintf("Vector(%d)", int(v))
	}
}

// Bits returns the vector register width in bits.
func (v Vector) Bits() int {
	switch v {
	case SSE:
		return 128
	case AVX, AVX2:
		return 256
	case AVX512:
		return 512
	default:
		return 0
	}
}

// DPOpsPerCycle returns double-precision FLOPs per cycle per FMA unit for
// the instruction set, per Eq. 10 of the paper generalised to any width:
//
//	ops/cycle = |vector| * ops_per_element / |DP|
//
// where ops_per_element is 2 for fused multiply-add sets (AVX2, AVX512)
// and 1 otherwise. AVX512: 512 bits * 2 / 64 bits = 16.
func (v Vector) DPOpsPerCycle() float64 {
	lanes := float64(v.Bits()) / 64
	if v == AVX2 || v == AVX512 {
		return lanes * 2
	}
	return lanes
}

// SPOpsPerCycle returns single-precision FLOPs per cycle per FMA unit,
// used to reproduce the paper's Eq. 12 calculation for the Silver 4110.
func (v Vector) SPOpsPerCycle() float64 { return 2 * v.DPOpsPerCycle() }

// System is a complete description of one benchmarkable machine.
//
// Note on Table II fidelity: the paper prints "AVXUnits 1" for the
// Broadwell (v4) systems, yet its own Table III peak of 422.4 GFLOP/s for
// the 2650v4 requires 16 DP FLOP/cycle/core = two 256-bit FMA units, which
// is the physically correct figure for Broadwell. We encode FMAUnits=2 so
// that Eq. 9 reproduces Table III exactly, and record the discrepancy in
// EXPERIMENTS.md.
type System struct {
	Name           string
	FreqGHz        float64 // base core clock, GHz (Table II Freq_CPU)
	CoresPerSocket int
	Vector         Vector
	FMAUnits       int     // AVX units per core (Table II AVX_Units, corrected)
	Sockets        int     // CPUs in the node
	DRAMFreqMHz    float64 // memory clock (Table II Freq_D)
	DRAMChannels   int     // channels per socket
	BytesPerCycle  float64 // per channel transfer width; 8 for DDR4

	// Cache hierarchy. L3 is shared per socket; L1/L2 are per core.
	L3PerSocket units.ByteSize
	L2PerCore   units.ByteSize
	L1PerCore   units.ByteSize
}

// Validate reports whether the description is internally consistent.
func (s *System) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("hw: system has no name")
	case s.FreqGHz <= 0:
		return fmt.Errorf("hw: %s: non-positive core frequency", s.Name)
	case s.CoresPerSocket <= 0:
		return fmt.Errorf("hw: %s: non-positive core count", s.Name)
	case s.FMAUnits <= 0:
		return fmt.Errorf("hw: %s: non-positive FMA unit count", s.Name)
	case s.Sockets <= 0:
		return fmt.Errorf("hw: %s: non-positive socket count", s.Name)
	case s.DRAMFreqMHz <= 0:
		return fmt.Errorf("hw: %s: non-positive DRAM frequency", s.Name)
	case s.DRAMChannels <= 0:
		return fmt.Errorf("hw: %s: non-positive DRAM channel count", s.Name)
	case s.BytesPerCycle <= 0:
		return fmt.Errorf("hw: %s: non-positive bytes per cycle", s.Name)
	case s.L3PerSocket <= 0:
		return fmt.Errorf("hw: %s: non-positive L3 size", s.Name)
	}
	return nil
}

// Cores returns the number of cores available when using the given number
// of sockets, clamped to the system's socket count.
func (s *System) Cores(sockets int) int {
	return s.CoresPerSocket * s.clampSockets(sockets)
}

// SocketConfigs returns the socket counts the paper measures on this
// system: a single socket always, plus the full machine when it has more.
// Both the library sweeps and the experiment campaigns iterate this list.
func (s *System) SocketConfigs() []int {
	out := []int{1}
	if s.Sockets > 1 {
		out = append(out, s.Sockets)
	}
	return out
}

func (s *System) clampSockets(sockets int) int {
	if sockets < 1 {
		sockets = 1
	}
	if sockets > s.Sockets {
		sockets = s.Sockets
	}
	return sockets
}

// TheoreticalFlops evaluates Eq. 9 for the given socket count:
//
//	Ft = freq * cores * AVX_type * AVX_units * CPUs
//
// in double precision.
func (s *System) TheoreticalFlops(sockets int) units.Flops {
	n := s.clampSockets(sockets)
	return units.Flops(s.FreqGHz * 1e9 * float64(s.CoresPerSocket) *
		s.Vector.DPOpsPerCycle() * float64(s.FMAUnits) * float64(n))
}

// TheoreticalFlopsSP is Eq. 9 in single precision (the paper's Eq. 12 uses
// the 32 ops/cycle SP multiplier for the Silver 4110).
func (s *System) TheoreticalFlopsSP(sockets int) units.Flops {
	n := s.clampSockets(sockets)
	return units.Flops(s.FreqGHz * 1e9 * float64(s.CoresPerSocket) *
		s.Vector.SPOpsPerCycle() * float64(s.FMAUnits) * float64(n))
}

// TheoreticalBandwidth evaluates Eq. 11:
//
//	Bt = freq * channels * bytes/cycle
//
// DRAMChannels follows the paper's Table II convention: the channel count
// is the figure Eq. 11 multiplies to get the *node* bandwidth of Table
// III (76.8 GB/s for the v4 systems), and the paper's Table VI rates
// single-socket runs against half that. TheoreticalBandwidth therefore
// scales the node figure by sockets/Sockets.
func (s *System) TheoreticalBandwidth(sockets int) units.Bandwidth {
	n := s.clampSockets(sockets)
	node := s.DRAMFreqMHz * 1e6 * float64(s.DRAMChannels) * s.BytesPerCycle
	return units.Bandwidth(node * float64(n) / float64(s.Sockets))
}

// L3Total returns the aggregate L3 capacity across the given sockets.
func (s *System) L3Total(sockets int) units.ByteSize {
	return s.L3PerSocket * units.ByteSize(s.clampSockets(sockets))
}

// L2Total returns the aggregate L2 capacity across the given sockets'
// cores. L2 is private per core, so the aggregate scales with the engaged
// core count — the capacity bound the per-level TRIAD residency sweeps
// classify working sets against.
func (s *System) L2Total(sockets int) units.ByteSize {
	return s.L2PerCore * units.ByteSize(s.Cores(sockets))
}

// L1Total returns the aggregate L1 data-cache capacity across the given
// sockets' cores.
func (s *System) L1Total(sockets int) units.ByteSize {
	return s.L1PerCore * units.ByteSize(s.Cores(sockets))
}

// CacheLevels returns the residency-region names of the memory hierarchy
// in decreasing-bandwidth order: L1, L2, L3, DRAM. It is the vocabulary
// of the per-level TRIAD sweeps (rooftune.WithTriadLevels) and of
// MemoryPoint.Region on simulated systems.
func CacheLevels() []string { return []string{"L1", "L2", "L3", "DRAM"} }

// ValidateCacheLevels checks that levels is a non-empty, duplicate-free
// subset of CacheLevels — the one validator behind both the session
// option and the TRIAD workload, so they can never disagree on what a
// level name is.
func ValidateCacheLevels(levels []string) error {
	if len(levels) == 0 {
		return fmt.Errorf("hw: no residency levels named")
	}
	seen := map[string]bool{}
	for _, lv := range levels {
		known := false
		for _, k := range CacheLevels() {
			known = known || k == lv
		}
		if !known {
			return fmt.Errorf("hw: unknown residency level %q (known: %v)", lv, CacheLevels())
		}
		if seen[lv] {
			return fmt.Errorf("hw: residency level %q named twice", lv)
		}
		seen[lv] = true
	}
	return nil
}

// String returns a one-line summary of the system.
func (s *System) String() string {
	return fmt.Sprintf("%s: %dx%d cores @ %.1f GHz %s x%d, %d ch DDR-%d, L3 %v/socket",
		s.Name, s.Sockets, s.CoresPerSocket, s.FreqGHz, s.Vector, s.FMAUnits,
		s.DRAMChannels, int(s.DRAMFreqMHz), s.L3PerSocket)
}

// Affinity is the thread-placement policy, modelling KMP_AFFINITY.
type Affinity int

const (
	// AffinityClose packs threads onto consecutive core IDs, filling one
	// socket before spilling to the next — the policy the paper uses for
	// DGEMM (keep data close to the cores) and for single-socket TRIAD.
	AffinityClose Affinity = iota
	// AffinitySpread distributes threads across sockets round-robin,
	// maximising aggregate memory channels — the paper's policy for
	// multi-socket TRIAD.
	AffinitySpread
)

// String returns the KMP_AFFINITY-style name of the policy.
func (a Affinity) String() string {
	if a == AffinitySpread {
		return "spread"
	}
	return "close"
}

// Predefined systems. These are package-level immutable templates; use
// Get to obtain a copy safe for mutation.
var (
	// IdunE52650v4 is the Intel Xeon E5-2650 v4 node (Broadwell, AVX2).
	IdunE52650v4 = System{
		Name: "2650v4", FreqGHz: 2.2, CoresPerSocket: 12, Vector: AVX2,
		FMAUnits: 2, Sockets: 2, DRAMFreqMHz: 2400, DRAMChannels: 4,
		BytesPerCycle: 8, L3PerSocket: 30 * units.MiB,
		L2PerCore: 256 * units.KiB, L1PerCore: 32 * units.KiB,
	}
	// IdunE52695v4 is the Intel Xeon E5-2695 v4 node (Broadwell, AVX2).
	IdunE52695v4 = System{
		Name: "2695v4", FreqGHz: 2.1, CoresPerSocket: 18, Vector: AVX2,
		FMAUnits: 2, Sockets: 2, DRAMFreqMHz: 2400, DRAMChannels: 4,
		BytesPerCycle: 8, L3PerSocket: 45 * units.MiB,
		L2PerCore: 256 * units.KiB, L1PerCore: 32 * units.KiB,
	}
	// IdunGold6132 is the Intel Xeon Gold 6132 node (Skylake-SP, AVX-512).
	IdunGold6132 = System{
		Name: "Gold 6132", FreqGHz: 2.6, CoresPerSocket: 14, Vector: AVX512,
		FMAUnits: 2, Sockets: 2, DRAMFreqMHz: 2666, DRAMChannels: 6,
		BytesPerCycle: 8, L3PerSocket: units.ByteSize(19.25 * float64(units.MiB)),
		L2PerCore: units.MiB, L1PerCore: 32 * units.KiB,
	}
	// IdunGold6148 is the Intel Xeon Gold 6148 node (Skylake-SP, AVX-512).
	IdunGold6148 = System{
		Name: "Gold 6148", FreqGHz: 2.4, CoresPerSocket: 20, Vector: AVX512,
		FMAUnits: 2, Sockets: 2, DRAMFreqMHz: 2666, DRAMChannels: 6,
		BytesPerCycle: 8, L3PerSocket: units.ByteSize(31.75 * float64(units.MiB)),
		L2PerCore: units.MiB, L1PerCore: 32 * units.KiB,
	}
	// Silver4110 is the Intel Xeon Silver 4110 that Intel's MKL tuning
	// guide (Hu & Story) benchmarked; the paper compares against it in
	// §VI-A. Silver SKUs have a single 512-bit FMA unit.
	Silver4110 = System{
		Name: "Silver 4110", FreqGHz: 2.1, CoresPerSocket: 8, Vector: AVX512,
		FMAUnits: 1, Sockets: 2, DRAMFreqMHz: 2400, DRAMChannels: 6,
		BytesPerCycle: 8, L3PerSocket: 11 * units.MiB,
		L2PerCore: units.MiB, L1PerCore: 32 * units.KiB,
	}
)

// IdunSystems returns the four paper systems in Table II order.
func IdunSystems() []System {
	return []System{IdunE52650v4, IdunE52695v4, IdunGold6132, IdunGold6148}
}

var (
	registryMu sync.RWMutex
	registry   = map[string]System{
		"2650v4":      IdunE52650v4,
		"2695v4":      IdunE52695v4,
		"gold6132":    IdunGold6132,
		"gold6148":    IdunGold6148,
		"silver4110":  Silver4110,
		"Gold 6132":   IdunGold6132,
		"Gold 6148":   IdunGold6148,
		"Silver 4110": Silver4110,
	}
)

// Register adds (or replaces) a named system in the lookup registry used by
// the command-line tools. The system is validated first.
func Register(s System) error {
	if err := s.Validate(); err != nil {
		return err
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[s.Name] = s
	return nil
}

// Get returns a copy of the registered system with the given name.
func Get(name string) (System, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	if s, ok := registry[name]; ok {
		return s, nil
	}
	return System{}, fmt.Errorf("hw: unknown system %q (known: %v)", name, knownLocked())
}

// Known lists registered system names, sorted.
func Known() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return knownLocked()
}

func knownLocked() []string {
	names := make([]string, 0, len(registry))
	seen := make(map[string]bool)
	for _, s := range registry {
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	return names
}
