package core

import (
	"context"
	"testing"
	"testing/quick"
)

func TestSolveLastRowMatchesFullSolveAllMasks(t *testing.T) {
	for _, m := range AllDepMasks() {
		p := testProblem(m, 23, 17)
		full, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		row, err := SolveLastRowContext(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(row) != 17 {
			t.Fatalf("%s: row length %d", m, len(row))
		}
		for j := 0; j < 17; j++ {
			if row[j] != full.At(22, j) {
				t.Errorf("%s: last-row cell %d = %d, full table %d", m, j, row[j], full.At(22, j))
			}
		}
	}
}

func TestSolveLastRowSingleRow(t *testing.T) {
	p := testProblem(DepN|DepNW, 1, 9)
	full, _ := Solve(p)
	row, err := SolveLastRowContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for j := range row {
		if row[j] != full.At(0, j) {
			t.Fatalf("cell %d differs", j)
		}
	}
}

func TestSolveLastRowValidates(t *testing.T) {
	if _, err := SolveLastRowContext(context.Background(), &Problem[int64]{Rows: 0, Cols: 3, Deps: DepN}); err == nil {
		t.Error("expected validation error")
	}
}

// Property: rolling and full solves agree on the last row for random
// masks and shapes.
func TestSolveLastRowProperty(t *testing.T) {
	masks := AllDepMasks()
	f := func(mi, r, c uint8) bool {
		m := masks[int(mi)%len(masks)]
		rows := int(r%30) + 1
		cols := int(c%30) + 1
		p := testProblem(m, rows, cols)
		full, err := Solve(p)
		if err != nil {
			return false
		}
		row, err := SolveLastRowContext(context.Background(), p)
		if err != nil {
			return false
		}
		for j := 0; j < cols; j++ {
			if row[j] != full.At(rows-1, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
