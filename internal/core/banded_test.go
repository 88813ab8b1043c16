package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

// bandedMinProblem is a Levenshtein-like minimization used to exercise the
// band: the absorbing value is a large constant.
func bandedMinProblem(rows, cols int) *Problem[int64] {
	return &Problem[int64]{
		Name: "banded-min", Rows: rows, Cols: cols, Deps: DepW | DepNW | DepN,
		F: func(i, j int, nb Neighbors[int64]) int64 {
			if i == 0 || j == 0 {
				return int64(max(i, j))
			}
			d := int64(0)
			if (i*7+j*13)%5 == 0 {
				d = 1
			}
			return min(nb.NW+d, nb.N+1, nb.W+1)
		},
	}
}

const bandedInf = int64(math.MaxInt64 / 4)

func bandedAbsorb(i, j int) int64 { return bandedInf }

func TestSolveBandedWideBandMatchesFull(t *testing.T) {
	p := bandedMinProblem(40, 40)
	full, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Band covering the whole table: identical everywhere.
	banded, err := SolveBandedContext(context.Background(), p, 40, bandedAbsorb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if banded.At(i, j) != full.At(i, j) {
				t.Fatalf("cell (%d,%d): banded %d != full %d", i, j, banded.At(i, j), full.At(i, j))
			}
		}
	}
}

func TestSolveBandedNeverBelowFull(t *testing.T) {
	// Restricting paths can only increase a minimization's answer.
	p := bandedMinProblem(50, 50)
	full, _ := Solve(p)
	for _, band := range []int{0, 1, 3, 10} {
		banded, err := SolveBandedContext(context.Background(), p, band, bandedAbsorb)
		if err != nil {
			t.Fatal(err)
		}
		if banded.At(49, 49) < full.At(49, 49) {
			t.Errorf("band %d: banded answer %d below full %d", band, banded.At(49, 49), full.At(49, 49))
		}
	}
}

func TestSolveBandedExactWhenAnswerFits(t *testing.T) {
	p := bandedMinProblem(60, 60)
	full, _ := Solve(p)
	answer := full.At(59, 59)
	// The square table's optimal path deviates at most `answer` cells from
	// the diagonal, so a band of that width is exact.
	banded, err := SolveBandedContext(context.Background(), p, int(answer), bandedAbsorb)
	if err != nil {
		t.Fatal(err)
	}
	if got := banded.At(59, 59); got != answer {
		t.Errorf("band %d: banded answer %d != full %d", answer, got, answer)
	}
}

func TestSolveBandedOutOfBandCellsHoldAbsorbingValue(t *testing.T) {
	p := bandedMinProblem(20, 20)
	banded, err := SolveBandedContext(context.Background(), p, 2, bandedAbsorb)
	if err != nil {
		t.Fatal(err)
	}
	if got := banded.At(0, 19); got != bandedInf {
		t.Errorf("out-of-band cell = %d, want absorbing value", got)
	}
	if got := banded.At(19, 0); got != bandedInf {
		t.Errorf("out-of-band cell = %d, want absorbing value", got)
	}
}

func TestSolveBandedErrors(t *testing.T) {
	p := bandedMinProblem(4, 4)
	if _, err := SolveBandedContext(context.Background(), p, -1, bandedAbsorb); err == nil {
		t.Error("negative band should error")
	}
	if _, err := SolveBandedContext(context.Background(), p, 2, nil); err == nil {
		t.Error("nil outOfBand should error")
	}
	bad := &Problem[int64]{Rows: 0, Cols: 1, Deps: DepN}
	if _, err := SolveBandedContext(context.Background(), bad, 2, bandedAbsorb); err == nil {
		t.Error("invalid problem should error")
	}
}

func TestBandWidth(t *testing.T) {
	cases := []struct {
		rows, cols, band, i, want int
	}{
		{10, 10, 2, 0, 3},   // j in [0,2]
		{10, 10, 2, 5, 5},   // j in [3,7]
		{10, 10, 2, 9, 3},   // j in [7,9]
		{10, 10, 0, 4, 1},   // diagonal only
		{10, 3, 2, 9, 0},    // band entirely right of the table
		{10, 10, 20, 5, 10}, // band wider than the table
	}
	for _, c := range cases {
		if got := BandWidth(c.rows, c.cols, c.band, c.i); got != c.want {
			t.Errorf("BandWidth(%d,%d,%d,%d) = %d, want %d", c.rows, c.cols, c.band, c.i, got, c.want)
		}
	}
}

// Property: banded answers are monotone non-increasing in the band width
// and reach the full answer once the band covers the table.
func TestSolveBandedMonotoneProperty(t *testing.T) {
	f := func(r, c uint8) bool {
		rows := int(r%20) + 2
		cols := int(c%20) + 2
		p := bandedMinProblem(rows, cols)
		full, err := Solve(p)
		if err != nil {
			return false
		}
		prev := int64(math.MaxInt64)
		for band := 0; band <= rows+cols; band += 3 {
			banded, err := SolveBandedContext(context.Background(), p, band, bandedAbsorb)
			if err != nil {
				return false
			}
			v := banded.At(rows-1, cols-1)
			if v > prev || v < full.At(rows-1, cols-1) {
				return false
			}
			prev = v
		}
		return prev == full.At(rows-1, cols-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
