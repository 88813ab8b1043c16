package problems

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestLevenshteinKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int32
	}{
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"a", "b", 1},
	}
	for _, c := range cases {
		p := Levenshtein(c.a, c.b)
		g, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := LevenshteinDistance(g, c.a, c.b); got != c.want {
			t.Errorf("lev(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := LevenshteinRef(c.a, c.b); got != c.want {
			t.Errorf("ref lev(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinPatternIsAntiDiagonal(t *testing.T) {
	p := Levenshtein("abc", "abd")
	if got := p.Pattern(); got != core.AntiDiagonal {
		t.Errorf("pattern = %s, want Anti-diagonal (§VI-A)", got)
	}
}

func TestLevenshteinFrameworkMatchesRef(t *testing.T) {
	a, b := workload.SimilarStrings(1, 300, workload.ASCIIAlphabet, 0.15)
	p := Levenshtein(a, b)
	res, err := core.SolveHetero(p, core.Options{TSwitch: -1, TShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := LevenshteinDistance(res.Grid, a, b), LevenshteinRef(a, b); got != want {
		t.Errorf("framework %d != ref %d", got, want)
	}
}

func TestLCSKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int32
	}{
		{"ABCBDAB", "BDCABA", 4}, // classic CLRS example
		{"", "x", 0},
		{"abc", "abc", 3},
		{"abc", "def", 0},
	}
	for _, c := range cases {
		g, err := core.Solve(LCS(c.a, c.b))
		if err != nil {
			t.Fatal(err)
		}
		if got := LCSLength(g, c.a, c.b); got != c.want {
			t.Errorf("lcs(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := LCSRef(c.a, c.b); got != c.want {
			t.Errorf("ref lcs(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCSFrameworkMatchesRef(t *testing.T) {
	a, b := workload.SimilarStrings(7, 257, workload.DNAAlphabet, 0.3)
	res, err := core.SolveHetero(LCS(a, b), core.Options{TSwitch: 10, TShare: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := LCSLength(res.Grid, a, b), LCSRef(a, b); got != want {
		t.Errorf("framework %d != ref %d", got, want)
	}
}

func TestNeedlemanWunschKnown(t *testing.T) {
	s := DefaultAlignScores()
	// GATTACA vs GCATGCU with +2/-1/-2: verified against the reference.
	a, b := "GATTACA", "GCATGCU"
	g, err := core.Solve(NeedlemanWunsch(a, b, s))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := GlobalScore(g, a, b), NeedlemanWunschRef(a, b, s); got != want {
		t.Errorf("framework %d != ref %d", got, want)
	}
	// Aligning a string to itself scores Match per character.
	self, _ := core.Solve(NeedlemanWunsch("ACGT", "ACGT", s))
	if got := GlobalScore(self, "ACGT", "ACGT"); got != 8 {
		t.Errorf("self alignment = %d, want 8", got)
	}
	// Aligning against the empty string is all gaps.
	empty, _ := core.Solve(NeedlemanWunsch("ACG", "", s))
	if got := GlobalScore(empty, "ACG", ""); got != 3*s.Gap {
		t.Errorf("gap-only alignment = %d, want %d", got, 3*s.Gap)
	}
}

func TestNeedlemanWunschFrameworkMatchesRef(t *testing.T) {
	a, b := workload.SimilarStrings(21, 180, workload.DNAAlphabet, 0.2)
	s := DefaultAlignScores()
	res, err := core.SolveParallelContext(context.Background(), NeedlemanWunsch(a, b, s), core.Options{NativeWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := GlobalScore(res, a, b), NeedlemanWunschRef(a, b, s); got != want {
		t.Errorf("framework %d != ref %d", got, want)
	}
}

func TestSmithWatermanProperties(t *testing.T) {
	s := DefaultAlignScores()
	a, b := workload.SimilarStrings(33, 150, workload.DNAAlphabet, 0.25)
	g, err := core.Solve(SmithWaterman(a, b, s))
	if err != nil {
		t.Fatal(err)
	}
	got := LocalBestScore(g)
	want := SmithWatermanRef(a, b, s)
	if got != want {
		t.Errorf("framework best %d != ref %d", got, want)
	}
	if got < 0 {
		t.Error("local score must be non-negative")
	}
	// A shared exact substring guarantees a minimum score.
	g2, _ := core.Solve(SmithWaterman("xxxxACGTACGTxxxx", "yyACGTACGTyy", s))
	if best := LocalBestScore(g2); best < 8*s.Match {
		t.Errorf("embedded match scored %d, want >= %d", best, 8*s.Match)
	}
}

func TestCheckerboardKnown(t *testing.T) {
	cost := [][]int32{
		{1, 9, 9},
		{9, 1, 9},
		{9, 9, 1},
	}
	p := Checkerboard(cost)
	if p.Pattern() != core.Horizontal {
		t.Errorf("pattern = %s, want Horizontal", p.Pattern())
	}
	if core.TransferNeed(p.Deps) != core.TransferTwoWay {
		t.Error("checkerboard should be horizontal case-2 (two-way)")
	}
	g, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := CheckerboardBest(g); got != 3 {
		t.Errorf("best path = %d, want 3 (the diagonal)", got)
	}
	_, refBest := CheckerboardRef(cost)
	if refBest != 3 {
		t.Errorf("ref best = %d, want 3", refBest)
	}
}

func TestCheckerboardFrameworkMatchesRef(t *testing.T) {
	cost := workload.CostGrid(5, 120, 90, 50)
	res, err := core.SolveHetero(Checkerboard(cost), core.Options{TShare: 30, TSwitch: 0})
	if err != nil {
		t.Fatal(err)
	}
	lastRow, refBest := CheckerboardRef(cost)
	if got := CheckerboardBest(res.Grid); got != refBest {
		t.Errorf("framework best %d != ref %d", got, refBest)
	}
	for j, want := range lastRow {
		if got := res.Grid.At(119, j); got != want {
			t.Fatalf("last row cell %d: %d != ref %d", j, got, want)
		}
	}
}

func TestSeamCarve(t *testing.T) {
	energy := workload.EnergyGrid(9, 60, 80)
	res, err := core.SolveParallelContext(context.Background(), SeamCarve(energy), core.Options{NativeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, refBest := CheckerboardRef(energy)
	if got := SeamCost(res); got != refBest {
		t.Errorf("seam cost %d != ref %d", got, refBest)
	}
}

func TestDitherPatternIsKnightMove(t *testing.T) {
	img := workload.GrayImage(1, 4, 4)
	p := Dither(img)
	if got := p.Pattern(); got != core.KnightMove {
		t.Errorf("pattern = %s, want Knight-Move (§VI-B)", got)
	}
	if core.TransferNeed(p.Deps) != core.TransferTwoWay {
		t.Error("dithering should need two-way transfers")
	}
}

func TestDitherFrameworkMatchesScatterReference(t *testing.T) {
	img := workload.GrayImage(42, 37, 53)
	res, err := core.SolveHetero(Dither(img), core.Options{TSwitch: 8, TShare: 10})
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantErrs := DitherRef(img)
	got := DitherOutput(res.Grid)
	for i := range wantOut {
		for j := range wantOut[i] {
			if got[i][j] != wantOut[i][j] {
				t.Fatalf("output pixel (%d,%d) = %d, want %d", i, j, got[i][j], wantOut[i][j])
			}
			_, e := UnpackDither(res.Grid.At(i, j))
			if e != wantErrs[i][j] {
				t.Fatalf("error at (%d,%d) = %d, want %d", i, j, e, wantErrs[i][j])
			}
		}
	}
}

func TestDitherOutputIsBinary(t *testing.T) {
	img := workload.GrayImage(4, 16, 16)
	g, err := core.Solve(Dither(img))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range DitherOutput(g) {
		for _, v := range row {
			if v != 0 && v != 255 {
				t.Fatalf("non-binary output %d", v)
			}
		}
	}
}

func TestDitherPreservesAverageBrightness(t *testing.T) {
	// Error diffusion's defining property: local errors cancel, so the mean
	// output level tracks the mean input level.
	img := workload.GrayImage(8, 64, 64)
	g, err := core.Solve(Dither(img))
	if err != nil {
		t.Fatal(err)
	}
	var inSum, outSum int64
	out := DitherOutput(g)
	for i := range img {
		for j := range img[i] {
			inSum += int64(img[i][j])
			outSum += int64(out[i][j])
		}
	}
	n := int64(64 * 64)
	diff := inSum/n - outSum/n
	if diff < -8 || diff > 8 {
		t.Errorf("mean brightness drifted: in %d, out %d", inSum/n, outSum/n)
	}
}

func TestPackUnpackDither(t *testing.T) {
	for _, out := range []uint8{0, 255} {
		for _, e := range []int32{-510, -1, 0, 1, 255, 510} {
			o, ee := UnpackDither(PackDither(out, e))
			if o != out || ee != e {
				t.Errorf("pack/unpack(%d,%d) = (%d,%d)", out, e, o, ee)
			}
		}
	}
}

func TestDTWKnown(t *testing.T) {
	x := []float64{0, 1, 2}
	y := []float64{0, 1, 2}
	g, err := core.Solve(DTW(x, y))
	if err != nil {
		t.Fatal(err)
	}
	if got := DTWDistance(g, x, y); got != 0 {
		t.Errorf("identical series DTW = %v, want 0", got)
	}
	// A constant shift of a flat series costs shift per aligned point.
	x2 := []float64{1, 1, 1}
	y2 := []float64{2, 2, 2}
	g2, _ := core.Solve(DTW(x2, y2))
	if got := DTWDistance(g2, x2, y2); got != 3 {
		t.Errorf("shifted series DTW = %v, want 3", got)
	}
}

func TestDTWFrameworkMatchesRef(t *testing.T) {
	x := workload.TimeSeries(3, 120, -1, 1)
	y := workload.TimeSeries(4, 140, -1, 1)
	res, err := core.SolveHetero(DTW(x, y), core.Options{TSwitch: -1, TShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := DTWDistance(res.Grid, x, y)
	want := DTWRef(x, y)
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("framework %v != ref %v", got, want)
	}
}

// All case studies must agree across every solver, not just the hetero one.
func TestAllProblemsAllSolversAgree(t *testing.T) {
	a, b := workload.SimilarStrings(99, 90, workload.DNAAlphabet, 0.2)
	cost := workload.CostGrid(17, 70, 60, 20)
	img := workload.GrayImage(23, 40, 50)

	probs := []*core.Problem[int32]{
		Levenshtein(a, b),
		LCS(a, b),
		NeedlemanWunsch(a, b, DefaultAlignScores()),
		SmithWaterman(a, b, DefaultAlignScores()),
		Checkerboard(cost),
		Dither(img),
	}
	for _, p := range probs {
		want, err := core.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		par, err := core.SolveParallelContext(context.Background(), p, core.Options{NativeWorkers: 4})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		het, err := core.SolveHetero(p, core.Options{TSwitch: -1, TShare: -1})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i := 0; i < p.Rows; i++ {
			for j := 0; j < p.Cols; j++ {
				if par.At(i, j) != want.At(i, j) {
					t.Fatalf("%s: parallel differs at (%d,%d)", p.Name, i, j)
				}
				if het.Grid.At(i, j) != want.At(i, j) {
					t.Fatalf("%s: hetero differs at (%d,%d)", p.Name, i, j)
				}
			}
		}
	}
}
