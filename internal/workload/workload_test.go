package workload

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v", v)
		}
	}
}

func TestRandomString(t *testing.T) {
	s := RandomString(1, 500, DNAAlphabet)
	if len(s) != 500 {
		t.Fatalf("len = %d", len(s))
	}
	counts := map[rune]int{}
	for _, c := range s {
		counts[c]++
	}
	for _, c := range DNAAlphabet {
		if counts[c] == 0 {
			t.Errorf("letter %c never appears in 500 draws", c)
		}
	}
	if s != RandomString(1, 500, DNAAlphabet) {
		t.Error("not deterministic")
	}
	if s == RandomString(2, 500, DNAAlphabet) {
		t.Error("seed has no effect")
	}
}

func TestSimilarStrings(t *testing.T) {
	a, b := SimilarStrings(5, 2000, ASCIIAlphabet, 0.1)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	// ~10% mutation rate, but a mutation can re-draw the same letter;
	// expect roughly 0.1 * 25/26 ~ 9.6% differences.
	if diff < 100 || diff > 320 {
		t.Errorf("differences = %d of 2000, want near 190", diff)
	}
}

func TestGrayImageShapeAndRange(t *testing.T) {
	img := GrayImage(3, 20, 30)
	if len(img) != 20 || len(img[0]) != 30 {
		t.Fatal("shape wrong")
	}
	// The gradient should make the bottom-right brighter than the top-left
	// on average.
	var tl, br int
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			tl += int(img[i][j])
			br += int(img[15+i][25+j])
		}
	}
	if br <= tl {
		t.Errorf("gradient missing: tl=%d br=%d", tl, br)
	}
}

func TestCostGridRange(t *testing.T) {
	g := CostGrid(11, 10, 10, 9)
	for i := range g {
		for j := range g[i] {
			if g[i][j] < 1 || g[i][j] > 9 {
				t.Fatalf("cost %d out of [1,9]", g[i][j])
			}
		}
	}
}

func TestTimeSeriesBounds(t *testing.T) {
	s := TimeSeries(13, 5000, -2, 2)
	if len(s) != 5000 {
		t.Fatal("length wrong")
	}
	for i, v := range s {
		if v < -2 || v > 2 {
			t.Fatalf("s[%d] = %v out of bounds", i, v)
		}
	}
}

func TestEnergyGridNonNegative(t *testing.T) {
	g := EnergyGrid(17, 30, 30)
	edges := 0
	for i := range g {
		for j := range g[i] {
			if g[i][j] < 0 {
				t.Fatalf("negative energy")
			}
			if g[i][j] >= 128 {
				edges++
			}
		}
	}
	if edges == 0 {
		t.Error("no high-energy edges generated")
	}
}

// Property: generators are pure functions of their seed.
func TestGeneratorDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := SimilarStrings(seed, 64, DNAAlphabet, 0.2)
		a2, b2 := SimilarStrings(seed, 64, DNAAlphabet, 0.2)
		if a != a2 || b != b2 {
			return false
		}
		g1 := CostGrid(seed, 8, 8, 10)
		g2 := CostGrid(seed, 8, 8, 10)
		for i := range g1 {
			for j := range g1[i] {
				if g1[i][j] != g2[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// checkWindow compares one CostWindow against the same cells of the
// full CostGrid.
func checkWindow(t *testing.T, seed uint64, g [][]int32, maxCost, r0, r1, c0, c1 int) {
	t.Helper()
	cols := len(g[0])
	w := CostWindow(seed, cols, maxCost, r0, r1, c0, c1)
	if len(w) != (r1-r0)*(c1-c0) {
		t.Fatalf("seed %d window [%d,%d)x[%d,%d): %d values", seed, r0, r1, c0, c1, len(w))
	}
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			if got, want := w[(i-r0)*(c1-c0)+j-c0], int64(g[i][j]); got != want {
				t.Fatalf("seed %d %dx%d window [%d,%d)x[%d,%d): cell (%d,%d) = %d, CostGrid %d",
					seed, len(g), cols, r0, r1, c0, c1, i, j, got, want)
			}
		}
	}
}

// Property: every window of the cost grid, generated on its own, equals
// the same cells of CostGrid — over random seeds, shapes (1xN and Nx1
// included), edge-touching windows and the full table.
func TestCostWindowMatchesCostGrid(t *testing.T) {
	r := NewRNG(0xc057)
	shapes := [][2]int{{1, 1}, {1, 37}, {41, 1}, {2, 2}, {17, 23}, {64, 9}}
	for k := 0; k < 30; k++ {
		shapes = append(shapes, [2]int{1 + r.Intn(70), 1 + r.Intn(70)})
	}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		seed := r.Uint64()
		maxCost := 1 + r.Intn(100)
		g := CostGrid(seed, rows, cols, maxCost)
		checkWindow(t, seed, g, maxCost, 0, rows, 0, cols) // the full table
		// One window on every edge and corner, then random interiors.
		h, w := 1+r.Intn(rows), 1+r.Intn(cols)
		checkWindow(t, seed, g, maxCost, 0, h, 0, w)
		checkWindow(t, seed, g, maxCost, 0, h, cols-w, cols)
		checkWindow(t, seed, g, maxCost, rows-h, rows, 0, w)
		checkWindow(t, seed, g, maxCost, rows-h, rows, cols-w, cols)
		checkWindow(t, seed, g, maxCost, 0, rows, cols-1, cols)
		checkWindow(t, seed, g, maxCost, rows-1, rows, 0, cols)
		for n := 0; n < 5; n++ {
			r0, c0 := r.Intn(rows), r.Intn(cols)
			checkWindow(t, seed, g, maxCost, r0, r0+1+r.Intn(rows-r0), c0, c0+1+r.Intn(cols-c0))
		}
		checkWindow(t, seed, g, maxCost, rows/2, rows/2, 0, cols) // empty
	}
}
