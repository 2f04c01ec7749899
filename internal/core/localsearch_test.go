package core

import (
	"context"
	"testing"
	"testing/quick"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/vclock"
)

// Size returns the number of grid points.
func (g GridNeighborhood) Size() int {
	n := 1
	for _, s := range g.AxisSizes {
		n *= s
	}
	return n
}

func TestGridNeighborhoodShape(t *testing.T) {
	g := GridNeighborhood{AxisSizes: []int{3, 4, 5}}
	if g.Size() != 60 {
		t.Fatalf("size = %d", g.Size())
	}
	// Interior point: six neighbours (±1 on each of 3 axes).
	interior := g.index([]int{1, 2, 2})
	if n := len(g.Neighbors(interior)); n != 6 {
		t.Fatalf("interior degree %d, want 6", n)
	}
	// Corner: three neighbours.
	if n := len(g.Neighbors(0)); n != 3 {
		t.Fatalf("corner degree %d, want 3", n)
	}
}

func TestGridNeighborhoodSymmetric(t *testing.T) {
	// Adjacency must be symmetric and never self-referential.
	g := UnionSpaceNeighborhood()
	f := func(raw uint16) bool {
		i := int(raw) % g.Size()
		for _, nb := range g.Neighbors(i) {
			if nb == i || nb < 0 || nb >= g.Size() {
				return false
			}
			back := false
			for _, nn := range g.Neighbors(nb) {
				if nn == i {
					back = true
				}
			}
			if !back {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGridCoordsRoundTrip(t *testing.T) {
	g := GridNeighborhood{AxisSizes: []int{8, 8, 6}}
	f := func(raw uint16) bool {
		i := int(raw) % g.Size()
		return g.index(g.coords(i)) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// unimodalValues builds a value surface over a 4x4x4 grid with a single
// peak, so hill climbing from anywhere must find it.
func unimodalValues(peak [3]int) []float64 {
	g := GridNeighborhood{AxisSizes: []int{4, 4, 4}}
	vals := make([]float64, g.Size())
	for i := range vals {
		c := g.coords(i)
		d := abs(c[0]-peak[0]) + abs(c[1]-peak[1]) + abs(c[2]-peak[2])
		vals[i] = 100 - float64(d)
	}
	return vals
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestLocalSearchFindsUnimodalPeak(t *testing.T) {
	clock := vclock.NewVirtual()
	vals := unimodalValues([3]int{2, 1, 3})
	cases := makeCases(clock, vals)
	g := GridNeighborhood{AxisSizes: []int{4, 4, 4}}
	ls := NewLocalSearch(clock, quickBudget(), g, 1, 7)
	res, err := ls.Run(context.Background(), cases)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue() != 100 {
		t.Fatalf("local search found %v, want the peak 100", res.BestValue())
	}
	// It must have evaluated far fewer points than the whole grid.
	if res.Evaluations() >= g.Size() {
		t.Fatalf("local search evaluated everything (%d)", res.Evaluations())
	}
}

func TestLocalSearchMemoises(t *testing.T) {
	clock := vclock.NewVirtual()
	vals := unimodalValues([3]int{0, 0, 0})
	cases := makeCases(clock, vals)
	g := GridNeighborhood{AxisSizes: []int{4, 4, 4}}
	// Many restarts revisit cells; All must stay deduplicated.
	ls := NewLocalSearch(clock, quickBudget(), g, 20, 3)
	res, err := ls.Run(context.Background(), cases)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range res.All {
		if seen[o.Key] {
			t.Fatalf("case %s evaluated twice", o.Key)
		}
		seen[o.Key] = true
	}
}

func TestLocalSearchEmptySpace(t *testing.T) {
	ls := NewLocalSearch(vclock.NewVirtual(), quickBudget(), GridNeighborhood{AxisSizes: []int{1}}, 1, 1)
	if _, err := ls.Run(context.Background(), nil); err == nil {
		t.Fatal("empty space must error")
	}
}

func TestLocalSearchMaxSteps(t *testing.T) {
	clock := vclock.NewVirtual()
	vals := unimodalValues([3]int{3, 3, 3})
	cases := makeCases(clock, vals)
	g := GridNeighborhood{AxisSizes: []int{4, 4, 4}}
	ls := NewLocalSearch(clock, quickBudget(), g, 1, 1)
	ls.MaxSteps = 1 // a single step cannot reach the far corner...
	res, err := ls.Run(context.Background(), cases)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations() > 1+6+6 { // start + its hood + one more hood
		t.Fatalf("MaxSteps not honoured: %d evaluations", res.Evaluations())
	}
}

func TestUnionSpaceNeighborhoodMatchesSpace(t *testing.T) {
	if UnionSpaceNeighborhood().Size() != len(UnionDGEMMSpace()) {
		t.Fatal("neighbourhood size must equal the union space cardinality")
	}
	// Row-major layout agreement: index 0 is the first Dims; moving +1 on
	// the k axis moves to the next space entry.
	space := UnionDGEMMSpace()
	g := UnionSpaceNeighborhood()
	i := g.index([]int{2, 3, 1})
	d := space[i]
	if d.N != 1000 || d.M != 1024 || d.K != 128 {
		t.Fatalf("layout mismatch at (2,3,1): %v", d)
	}
}

func TestLocalSearchOnSimulatedSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated climb")
	}
	// On the real (simulated) DGEMM surface, restarts + memoisation must
	// find a configuration within a few percent of the exhaustive
	// optimum at a fraction of the evaluations.
	eng := bench.NewSimEngine(hw.IdunGold6148, 1021)
	budget := bench.DefaultBudget().WithFlags(true, true, true)
	space := UnionDGEMMSpace()
	cases := make([]bench.Case, len(space))
	for i, d := range space {
		cases[i] = eng.DGEMMCase(d.N, d.M, d.K, 1)
	}
	ls := NewLocalSearch(eng.Clock, budget, UnionSpaceNeighborhood(), 6, 11)
	res, err := ls.Run(context.Background(), cases)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue()/1e9 < 1422.24*0.96 {
		t.Fatalf("local search best %.2f too far from the exhaustive 1422.24", res.BestValue()/1e9)
	}
	if res.Evaluations() > len(space)*3/4 {
		t.Fatalf("local search evaluated %d of %d — no saving", res.Evaluations(), len(space))
	}
}
