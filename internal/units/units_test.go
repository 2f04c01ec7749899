package units

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestFlopsFormatting(t *testing.T) {
	f := GFLOPS(408.71)
	if got := f.GFLOPS(); math.Abs(got-408.71) > 1e-9 {
		t.Fatalf("GFLOPS round-trip: got %v", got)
	}
	if got := f.String(); got != "408.71 GFLOP/s" {
		t.Fatalf("String: got %q", got)
	}
}

func TestBandwidthFormatting(t *testing.T) {
	b := GBps(76.8)
	if got := b.GBps(); math.Abs(got-76.8) > 1e-9 {
		t.Fatalf("GBps round-trip: got %v", got)
	}
	if got := b.String(); got != "76.80 GB/s" {
		t.Fatalf("String: got %q", got)
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{3 * KiB, "3 KiB"},
		{768 * MiB, "768 MiB"},
		{GiB + GiB/2, "1.5 GiB"},
		{512, "512 B"},
		{ByteSize(19.25 * float64(MiB)), "19.25 MiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// byteSizeFormat is the fmt/strings rendering ByteSize.String had before
// it appended: the oracle Append must reproduce byte for byte.
func byteSizeFormat(s ByteSize) string {
	trim := func(v float64, unit string) string {
		str := strconv.FormatFloat(v, 'f', 2, 64)
		str = strings.TrimRight(str, "0")
		str = strings.TrimRight(str, ".")
		return str + " " + unit
	}
	switch {
	case s >= GiB:
		return trim(float64(s)/float64(GiB), "GiB")
	case s >= MiB:
		return trim(float64(s)/float64(MiB), "MiB")
	case s >= KiB:
		return trim(float64(s)/float64(KiB), "KiB")
	default:
		return fmt.Sprintf("%d B", int64(s))
	}
}

func TestByteSizeAppendMatchesFormat(t *testing.T) {
	sizes := []ByteSize{0, 1, -1, -5 * KiB, 1023, KiB, KiB + 5, KiB + 6, 10*KiB - 1, 100 * KiB,
		MiB - 1, MiB, 1000 * MiB, GiB - 1, GiB, 1000 * GiB, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		sizes = append(sizes, ByteSize(rng.Int63n(1<<uint(rng.Intn(62)+1))))
	}
	for _, s := range sizes {
		want := byteSizeFormat(s)
		if got := s.String(); got != want {
			t.Fatalf("ByteSize(%d).String() = %q, want %q", int64(s), got, want)
		}
		if got := string(s.Append([]byte("W="))); got != "W="+want {
			t.Fatalf("ByteSize(%d).Append(\"W=\") = %q, want %q", int64(s), got, "W="+want)
		}
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want ByteSize
	}{
		{"3KiB", 3 * KiB},
		{"768 MiB", 768 * MiB},
		{"1g", GiB},
		{"2kb", 2000},
		{"1MB", 1000000},
		{"100", 100},
		{"1.5 GiB", GiB + GiB/2},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if err != nil {
			t.Errorf("ParseByteSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseByteSizeErrors(t *testing.T) {
	for _, in := range []string{"", "x", "12 xb", "-5notaunit", "12..5KiB"} {
		if _, err := ParseByteSize(in); err == nil {
			t.Errorf("ParseByteSize(%q): want error", in)
		}
	}
}

func TestParseByteSizeRoundTrip(t *testing.T) {
	// String() renders with two decimals, so parse(String()) must land
	// within 0.5% of the original for any size (and exactly for sizes
	// the two-decimal form represents exactly).
	f := func(kib uint16) bool {
		s := ByteSize(int64(kib)+1) * KiB
		back, err := ParseByteSize(s.String())
		if err != nil {
			return false
		}
		diff := math.Abs(float64(back-s)) / float64(s)
		return diff < 0.005
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Exact for sub-MiB KiB multiples.
	for _, k := range []ByteSize{1, 3, 17, 512, 1023} {
		s := k * KiB
		back, err := ParseByteSize(s.String())
		if err != nil || back != s {
			t.Fatalf("exact round-trip failed for %v: %v %v", s, back, err)
		}
	}
}

func TestTriadIntensity(t *testing.T) {
	if math.Abs(float64(TriadIntensity)-1.0/12) > 1e-15 {
		t.Fatalf("TriadIntensity = %v, want 1/12", TriadIntensity)
	}
	if got := TriadIntensity.String(); !strings.Contains(got, "FLOP/B") {
		t.Fatalf("Intensity.String() = %q", got)
	}
}

func TestDGEMMWork(t *testing.T) {
	// 2*n*m*k for the paper's canonical square: 2e9 FLOPs at 1000^3.
	if got := DGEMMFlops(1000, 1000, 1000); got != 2e9 {
		t.Fatalf("DGEMMFlops(1000^3) = %g, want 2e9", got)
	}
	// Bytes: (n*k + k*m + 2*n*m) doubles.
	if got := DGEMMBytes(2, 3, 4); got != 8*(2*4+4*3+2*2*3) {
		t.Fatalf("DGEMMBytes = %g", got)
	}
	i := DGEMMIntensity(1000, 1000, 1000)
	want := 2e9 / (8 * 4e6)
	if math.Abs(float64(i)-want) > 1e-12 {
		t.Fatalf("DGEMMIntensity = %v, want %v", i, want)
	}
}

func TestTriadWork(t *testing.T) {
	if got := TriadBytes(1000); got != 24000 {
		t.Fatalf("TriadBytes = %g", got)
	}
	// Intensity identity: 2n flops / bytes == 1/12 for every n.
	f := func(n uint16) bool {
		v := int(n) + 1
		return math.Abs(2*float64(v)/TriadBytes(v)-float64(TriadIntensity)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(408.71, 422.4); got != "96.76%" {
		t.Fatalf("Percent = %q", got)
	}
	if got := Percent(1, 0); got != "n/a" {
		t.Fatalf("Percent div by zero = %q", got)
	}
}

func TestWorkingSetGrid(t *testing.T) {
	lo, hi := DefaultTriadRange()
	grid := WorkingSetGridDense(lo, hi, 1)
	if len(grid) != 19 {
		t.Fatalf("paper sweep has 19 doubling points, got %d", len(grid))
	}
	if grid[0] != 3*KiB || grid[len(grid)-1] != 768*MiB {
		t.Fatalf("grid endpoints: %v .. %v", grid[0], grid[len(grid)-1])
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] != grid[i-1]*2 {
			t.Fatalf("grid not doubling at %d: %v -> %v", i, grid[i-1], grid[i])
		}
	}
}

func TestWorkingSetGridDense(t *testing.T) {
	lo, hi := DefaultTriadRange()
	grid := WorkingSetGridDense(lo, hi, 4)
	if len(grid) < 4*18 {
		t.Fatalf("dense grid too small: %d points", len(grid))
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatalf("dense grid not strictly increasing at %d", i)
		}
		ratio := float64(grid[i]) / float64(grid[i-1])
		if ratio > 1.20 {
			t.Fatalf("dense grid gap too wide at %d: ratio %.3f", i, ratio)
		}
	}
	if grid[0] != lo || grid[len(grid)-1] != hi {
		t.Fatalf("dense grid must span lo..hi, got %v .. %v", grid[0], grid[len(grid)-1])
	}
	// The TRIAD vector lengths cover the same span: 3 KiB is 128
	// elements, and the last length fills 768 MiB exactly.
	elems := TriadGridElements(grid)
	if elems[0] != 128 || ByteSize(24*elems[len(elems)-1]) != hi {
		t.Fatalf("TRIAD lengths %d .. %d do not span %v .. %v", elems[0], elems[len(elems)-1], lo, hi)
	}
}

func TestWorkingSetGridDenseInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on invalid range")
		}
	}()
	WorkingSetGridDense(0, KiB, 1)
}

func TestTriadGridElements(t *testing.T) {
	elems := TriadGridElements([]ByteSize{3 * KiB, 10, 24 * 1000})
	if len(elems) != 2 {
		t.Fatalf("sizes under one element must be dropped: %v", elems)
	}
	if elems[0] != 128 {
		t.Fatalf("3 KiB / 24 B = 128 elements, got %d", elems[0])
	}
	if elems[1] != 1000 {
		t.Fatalf("24000 B = 1000 elements, got %d", elems[1])
	}
}

func TestCanonicalTriadGridCoversPaperRange(t *testing.T) {
	grid := CanonicalTriadGrid()
	lo, hi := DefaultTriadRange()
	if grid[0] != lo {
		t.Fatalf("canonical grid starts at %v, want %v", grid[0], lo)
	}
	if grid[len(grid)-1] != hi {
		t.Fatalf("canonical grid ends at %v, want %v", grid[len(grid)-1], hi)
	}
}
