// Package units provides typed quantities and formatting helpers for the
// performance domains used throughout rooftune: floating-point throughput
// (GFLOP/s), memory bandwidth (GB/s), byte sizes, and operational intensity
// (FLOP/byte). Keeping these as distinct types prevents the classic
// benchmarking bug of mixing binary and decimal prefixes or bytes and FLOPs.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Flops is a floating-point throughput in FLOP per second.
type Flops float64

// GFLOPS constructs a Flops value from a number expressed in GFLOP/s,
// the unit used by every table in the paper.
func GFLOPS(g float64) Flops { return Flops(g * 1e9) }

// GFLOPS reports the throughput in GFLOP/s.
func (f Flops) GFLOPS() float64 { return float64(f) / 1e9 }

// String renders the throughput in GFLOP/s with two decimals, matching the
// precision of the paper's tables (e.g. "408.71 GFLOP/s").
func (f Flops) String() string { return fmt.Sprintf("%.2f GFLOP/s", f.GFLOPS()) }

// Bandwidth is a memory bandwidth in bytes per second (decimal, as used by
// STREAM and by vendor DRAM specifications).
type Bandwidth float64

// GBps constructs a Bandwidth from a number expressed in GB/s (1e9 bytes/s).
func GBps(g float64) Bandwidth { return Bandwidth(g * 1e9) }

// GBps reports the bandwidth in GB/s.
func (b Bandwidth) GBps() float64 { return float64(b) / 1e9 }

// String renders the bandwidth in GB/s with two decimals ("76.80 GB/s").
func (b Bandwidth) String() string { return fmt.Sprintf("%.2f GB/s", b.GBps()) }

// ByteSize is a memory capacity in bytes. Binary prefixes (KiB, MiB, GiB)
// are used for capacities such as cache and working-set sizes; the paper's
// TRIAD sweep runs from 3 KiB to 768 MiB.
type ByteSize int64

// Binary-prefix capacity units.
const (
	KiB ByteSize = 1 << 10
	MiB ByteSize = 1 << 20
	GiB ByteSize = 1 << 30
)

// String renders the size with the largest exact-enough binary prefix:
// "3 KiB", "768 MiB", "1.5 GiB".
func (s ByteSize) String() string { return string(s.Append(nil)) }

// Append appends the size as String renders it to b, so a caller
// formatting a larger string makes no intermediate one.
func (s ByteSize) Append(b []byte) []byte {
	switch {
	case s >= GiB:
		return appendTrimmed(b, float64(s)/float64(GiB), "GiB")
	case s >= MiB:
		return appendTrimmed(b, float64(s)/float64(MiB), "MiB")
	case s >= KiB:
		return appendTrimmed(b, float64(s)/float64(KiB), "KiB")
	default:
		return append(strconv.AppendInt(b, int64(s), 10), " B"...)
	}
}

// appendTrimmed appends v to two decimals without trailing zeros (and
// without a bare trailing point), then a space and unit.
func appendTrimmed(b []byte, v float64, unit string) []byte {
	b = strconv.AppendFloat(b, v, 'f', 2, 64)
	for b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	if b[len(b)-1] == '.' {
		b = b[:len(b)-1]
	}
	return append(append(b, ' '), unit...)
}

// ParseByteSize parses strings such as "3KiB", "768 MiB", "45MB" (decimal MB
// is accepted and treated as 1e6 bytes), or a bare integer byte count.
func ParseByteSize(s string) (ByteSize, error) {
	str := strings.TrimSpace(s)
	if str == "" {
		return 0, fmt.Errorf("units: empty byte size")
	}
	// Split numeric prefix from unit suffix.
	i := 0
	for i < len(str) && (str[i] == '.' || str[i] == '-' || (str[i] >= '0' && str[i] <= '9')) {
		i++
	}
	num, unit := strings.TrimSpace(str[:i]), strings.TrimSpace(str[i:])
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad byte size %q: %v", s, err)
	}
	var mult float64
	switch strings.ToLower(unit) {
	case "", "b":
		mult = 1
	case "kib", "k":
		mult = float64(KiB)
	case "mib", "m":
		mult = float64(MiB)
	case "gib", "g":
		mult = float64(GiB)
	case "kb":
		mult = 1e3
	case "mb":
		mult = 1e6
	case "gb":
		mult = 1e9
	default:
		return 0, fmt.Errorf("units: unknown unit %q in %q", unit, s)
	}
	bytes := v * mult
	if bytes < 0 || bytes > math.MaxInt64 {
		return 0, fmt.Errorf("units: byte size %q out of range", s)
	}
	return ByteSize(bytes), nil
}

// Intensity is an operational intensity in FLOP per byte (Eq. 1 of the
// paper: I = W/Q).
type Intensity float64

// TriadIntensity is the operational intensity of the STREAM TRIAD kernel:
// 2 FLOPs per 24 bytes moved = 1/12 FLOP/byte (paper §I and §III-B).
const TriadIntensity Intensity = 1.0 / 12.0

// String renders the intensity ("0.083 FLOP/B").
func (i Intensity) String() string { return fmt.Sprintf("%.3g FLOP/B", float64(i)) }

// DGEMMFlops returns the floating-point work of one C <- alpha*A*B + beta*C
// with A of n x k, B of k x m: 2*n*m*k FLOPs (one multiply and one add per
// inner-product step), the count used by the paper's FLOPS computation.
func DGEMMFlops(n, m, k int) float64 { return 2 * float64(n) * float64(m) * float64(k) }

// DGEMMBytes returns the minimum memory traffic of one DGEMM in bytes
// assuming each matrix element is touched once from memory: (n*k + k*m +
// 2*n*m) doubles. Real traffic is higher; this lower bound is what places
// DGEMM far into the compute-bound region of the roofline.
func DGEMMBytes(n, m, k int) float64 {
	return 8 * (float64(n)*float64(k) + float64(k)*float64(m) + 2*float64(n)*float64(m))
}

// DGEMMIntensity is the operational intensity of the DGEMM benchmark for
// given dimensions.
func DGEMMIntensity(n, m, k int) Intensity {
	return Intensity(DGEMMFlops(n, m, k) / DGEMMBytes(n, m, k))
}

// TriadBytes returns the memory traffic of one TRIAD pass over vectors of
// length n doubles: 3 streams (2 loads + 1 store) of 8 bytes each.
func TriadBytes(n int) float64 { return 24 * float64(n) }

// Percent formats the ratio a/b as a percentage with two decimals, the
// "(96.76%)" notation of Tables IV and VI. It returns "n/a" when b is zero.
func Percent(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", 100*a/b)
}
