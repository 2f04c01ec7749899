package units

// WorkingSetGridDense returns a sweep of working-set sizes from lo to hi
// inclusive with perOctave points per doubling. perOctave=1 is the shape
// of the paper's TRIAD search range "starting at 3 KiB and ending at 768
// MiB" (§IV-B): 3 KiB, 6 KiB, ..., 768 MiB. A denser grid is needed on
// systems whose L3 window is narrow: the Skylake Golds have an aggregate
// L2 close to their victim L3, and a pure doubling sweep can step right
// over the L3-resident band. lo must be positive and no larger than hi.
func WorkingSetGridDense(lo, hi ByteSize, perOctave int) []ByteSize {
	if lo <= 0 || hi < lo || perOctave < 1 {
		panic("units: WorkingSetGridDense with invalid arguments")
	}
	var grid []ByteSize
	for octave := lo; octave <= hi; octave *= 2 {
		for i := 0; i < perOctave; i++ {
			w := ByteSize(float64(octave) * pow2frac(i, perOctave))
			if w > hi {
				break
			}
			grid = append(grid, w)
		}
	}
	// The loop may overshoot hi on the last octave; ensure hi itself is
	// present when it is an exact doubling of lo.
	if len(grid) == 0 || grid[len(grid)-1] != hi {
		for w := lo; w <= hi; w *= 2 {
			if w == hi {
				grid = append(grid, hi)
			}
		}
	}
	return dedupSorted(grid)
}

func pow2frac(i, per int) float64 {
	f := 1.0
	for j := 0; j < i; j++ {
		f *= root2(per)
	}
	return f
}

func root2(per int) float64 {
	// 2^(1/per) via repeated square root of 2 for per in {1,2,4}; general
	// case uses exp/log-free Newton iteration to stay dependency-light.
	switch per {
	case 1:
		return 2
	case 2:
		return 1.4142135623730951
	case 4:
		return 1.189207115002721
	default:
		// Newton for x^per = 2.
		x := 1.0 + 0.7/float64(per)
		for it := 0; it < 40; it++ {
			p := 1.0
			for j := 0; j < per-1; j++ {
				p *= x
			}
			x -= (p*x - 2) / (float64(per) * p)
		}
		return x
	}
}

func dedupSorted(in []ByteSize) []ByteSize {
	out := in[:0]
	var last ByteSize = -1
	for _, v := range in {
		if v != last {
			out = append(out, v)
			last = v
		}
	}
	return out
}

// CanonicalTriadGrid is the sweep the TRIAD experiments use: the paper's
// 3 KiB - 768 MiB range at four points per octave.
func CanonicalTriadGrid() []ByteSize {
	lo, hi := DefaultTriadRange()
	return WorkingSetGridDense(lo, hi, 4)
}

// TriadGridElements converts a working-set grid into TRIAD vector lengths:
// three double-precision vectors occupy 24 bytes per element, so
// N = W / 24. Sizes smaller than one element are dropped.
func TriadGridElements(grid []ByteSize) []int {
	elems := make([]int, 0, len(grid))
	for _, w := range grid {
		n := int(w / 24)
		if n >= 1 {
			elems = append(elems, n)
		}
	}
	return elems
}

// DefaultTriadRange is the paper's TRIAD sweep: 3 KiB to 768 MiB.
func DefaultTriadRange() (lo, hi ByteSize) { return 3 * KiB, 768 * MiB }
