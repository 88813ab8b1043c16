package problems

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/workload"
)

func binaryGrid(seed uint64, rows, cols int, onesPercent int) [][]uint8 {
	r := workload.NewRNG(seed)
	g := make([][]uint8, rows)
	for i := range g {
		g[i] = make([]uint8, cols)
		for j := range g[i] {
			if r.Intn(100) < onesPercent {
				g[i][j] = 1
			}
		}
	}
	return g
}

func TestMaximalSquareKnown(t *testing.T) {
	grid := [][]uint8{
		{1, 0, 1, 1, 1},
		{1, 0, 1, 1, 1},
		{1, 1, 1, 1, 1},
		{1, 0, 0, 1, 0},
	}
	g, err := core.Solve(MaximalSquare(grid))
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0-2, columns 2-4 form the largest all-ones square (side 3).
	if got := MaximalSquareSide(g); got != 3 {
		t.Errorf("maximal square side = %d, want 3", got)
	}
	if got := MaximalSquareRef(grid); got != 3 {
		t.Errorf("brute force side = %d, want 3", got)
	}
}

func TestMaximalSquareAllOnes(t *testing.T) {
	grid := binaryGrid(1, 12, 9, 100)
	g, err := core.Solve(MaximalSquare(grid))
	if err != nil {
		t.Fatal(err)
	}
	if got := MaximalSquareSide(g); got != 9 {
		t.Errorf("all-ones 12x9 square side = %d, want 9", got)
	}
}

// Property: the DP result matches the brute-force oracle on random grids.
func TestMaximalSquareMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, density uint8) bool {
		rows := int(seed%12) + 1
		cols := int(seed/13%12) + 1
		grid := binaryGrid(seed, rows, cols, int(density%101))
		g, err := core.Solve(MaximalSquare(grid))
		if err != nil {
			return false
		}
		return MaximalSquareSide(g) == MaximalSquareRef(grid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestMaximalSquareHeteroAgrees(t *testing.T) {
	grid := binaryGrid(77, 60, 80, 85)
	p := MaximalSquare(grid)
	want, _ := core.Solve(p)
	res, err := core.SolveHetero(p, core.Options{TSwitch: -1, TShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	if MaximalSquareSide(res.Grid) != MaximalSquareSide(want) {
		t.Error("hetero maximal square differs")
	}
}

func TestDelannoyCentralNumbers(t *testing.T) {
	n := len(CentralDelannoyFirst12)
	g, err := core.Solve(Delannoy(n, n))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range CentralDelannoyFirst12 {
		if got := g.At(i, i); got != want {
			t.Errorf("D(%d,%d) = %d, want %d (OEIS A001850)", i, i, got, want)
		}
	}
}

func TestDelannoySymmetry(t *testing.T) {
	g, err := core.SolveParallelContext(context.Background(), Delannoy(30, 30), core.Options{NativeWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < i; j++ {
			if g.At(i, j) != g.At(j, i) {
				t.Fatalf("Delannoy table not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDelannoyAllSolversAgree(t *testing.T) {
	p := Delannoy(40, 50)
	want, _ := core.Solve(p)
	res, err := core.SolveHetero(p, core.Options{TSwitch: 6, TShare: 4})
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := core.SolveTiledContext(context.Background(), p, 7, core.Options{NativeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 50; j++ {
			if res.Grid.At(i, j) != want.At(i, j) || tiled.At(i, j) != want.At(i, j) {
				t.Fatalf("solvers disagree at (%d,%d)", i, j)
			}
		}
	}
}

func TestSCSIdentityWithLCS(t *testing.T) {
	// |SCS(a,b)| = len(a) + len(b) - |LCS(a,b)|.
	a, b := workload.SimilarStrings(5, 150, workload.DNAAlphabet, 0.3)
	gs, err := core.Solve(SCS(a, b))
	if err != nil {
		t.Fatal(err)
	}
	scs := SCSLength(gs, a, b)
	lcs := LCSRef(a, b)
	if scs != int32(len(a)+len(b))-lcs {
		t.Errorf("SCS %d != %d + %d - %d", scs, len(a), len(b), lcs)
	}
}

// Property: the SCS/LCS identity holds for arbitrary string pairs.
func TestSCSIdentityProperty(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		a := workload.RandomString(seedA, int(seedA%25), "AB")
		b := workload.RandomString(seedB, int(seedB%25), "AB")
		g, err := core.Solve(SCS(a, b))
		if err != nil {
			return false
		}
		return SCSLength(g, a, b) == int32(len(a)+len(b))-LCSRef(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSCSEdgeCases(t *testing.T) {
	g, _ := core.Solve(SCS("", "abc"))
	if SCSLength(g, "", "abc") != 3 {
		t.Error("SCS with empty a wrong")
	}
	g2, _ := core.Solve(SCS("same", "same"))
	if SCSLength(g2, "same", "same") != 4 {
		t.Error("SCS of identical strings wrong")
	}
}

func TestLongestPalindromicSubsequence(t *testing.T) {
	cases := []struct {
		s    string
		want int32
	}{
		{"", 0},
		{"a", 1},
		{"ab", 1},
		{"racecar", 7},
		{"bbbab", 4},     // "bbbb"
		{"character", 5}, // "carac"
	}
	for _, c := range cases {
		got, err := LongestPalindromicSubsequence(c.s)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("LPS(%q) = %d, want %d", c.s, got, c.want)
		}
	}
}

// Property: palindromes score their full length, and appending a character
// never decreases the LPS.
func TestLPSProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := workload.RandomString(seed, int(seed%20)+1, "AB")
		pal := s + reverseString(s)
		full, err := LongestPalindromicSubsequence(pal)
		if err != nil || full != int32(len(pal)) {
			return false
		}
		base, err := LongestPalindromicSubsequence(s)
		if err != nil {
			return false
		}
		ext, err := LongestPalindromicSubsequence(s + "A")
		return err == nil && ext >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
