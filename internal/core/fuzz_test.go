package core

import (
	"context"
	"testing"

	"repro/internal/table"
)

// FuzzParseDepMask checks that the parser never panics and that anything
// it accepts round-trips through String.
func FuzzParseDepMask(f *testing.F) {
	for _, seed := range []string{"{W}", "{W,NW,N,NE}", "w, n", "", "{X}", "{,}", "NW"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseDepMask(s)
		if err != nil {
			return
		}
		if !m.Valid() {
			t.Fatalf("parser accepted invalid mask %08b from %q", m, s)
		}
		back, err := ParseDepMask(m.String())
		if err != nil || back != m {
			t.Fatalf("round trip failed for %q: %v %v", s, back, err)
		}
	})
}

// FuzzHeteroEquivalence drives the full pipeline — classification,
// symmetry reduction, strategy selection, simulated execution — on
// arbitrary masks, shapes and parameters, and checks cell-for-cell
// equality with the sequential reference.
func FuzzHeteroEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(9), int16(2), int16(3))
	f.Add(uint8(14), uint8(1), uint8(20), int16(-1), int16(-1))
	f.Fuzz(func(t *testing.T, mi, r, c uint8, tsw, tsh int16) {
		masks := AllDepMasks()
		m := masks[int(mi)%len(masks)]
		rows := int(r%24) + 1
		cols := int(c%24) + 1
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			t.Skip()
		}
		res, err := SolveHetero(p, Options{TSwitch: int(tsw), TShare: int(tsh)})
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(want, res.Grid) {
			t.Fatalf("mask %s %dx%d tsw=%d tsh=%d: hetero differs", m, rows, cols, tsw, tsh)
		}
	})
}

// FuzzAsyncDeps fuzzes the tile engine's dependency counters over
// arbitrary (mask, rows, cols, tile, workers): construction must never
// panic, the counter totals must equal the brute-force edge count of the
// tile DAG lifted from the mask (and the seeded ready queue must hold
// exactly the zero-in-degree tiles), and a full solve of the same small
// table through the Async entry point and at the fuzzed tile must match
// the sequential oracle cell for cell.
func FuzzAsyncDeps(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(9), uint8(2), uint8(4))
	f.Add(uint8(6), uint8(1), uint8(64), uint8(7), uint8(1))  // 1xN row
	f.Add(uint8(12), uint8(64), uint8(1), uint8(3), uint8(3)) // Nx1 column
	f.Add(uint8(9), uint8(2), uint8(2), uint8(1), uint8(7))   // 2x2 minimal
	f.Add(uint8(14), uint8(33), uint8(17), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, mi, r, c, tl, workers uint8) {
		masks := AllDepMasks()
		m := masks[int(mi)%len(masks)]
		rows := int(r%64) + 1
		cols := int(c%64) + 1
		tile := int(tl%9) + 1
		opts := Options{NativeWorkers: int(workers%8) + 2} // > 1: a real tile grid
		p := testProblem(m, rows, cols)

		e, _, err := newTileEngine(context.Background(), p, tile, opts, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force edge count: for each cell dependency that crosses
		// into another tile, one edge per distinct (tile, predecessor).
		type edge struct{ from, to int }
		edges := map[edge]bool{}
		tileOf := func(i, j int) int { return i/e.th*e.bc + (j+e.skew*i)/e.tw }
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				for _, d := range []struct {
					bit    DepMask
					di, dj int
				}{{DepW, 0, -1}, {DepNW, -1, -1}, {DepN, -1, 0}, {DepNE, -1, 1}} {
					pi, pj := i+d.di, j+d.dj
					if !m.Has(d.bit) || pi < 0 || pj < 0 || pj >= cols {
						continue
					}
					if from, to := tileOf(pi, pj), tileOf(i, j); from != to {
						edges[edge{from, to}] = true
					}
				}
			}
		}
		// deriveBlockMask may add edges the cell DAG only implies
		// transitively (NW lifts to W, NW and N even on a 1-row edge
		// tile), never fewer: each tile's counter must cover its distinct
		// cell-implied predecessors, and a tile has at most four.
		preds := make([]int32, len(e.indeg))
		for ed := range edges {
			preds[ed.to]++
		}
		indeg := make([]int32, len(e.indeg))
		for idx := range e.indeg {
			indeg[idx] = e.indeg[idx].Load()
			if indeg[idx] < preds[idx] || indeg[idx] > 4 {
				t.Fatalf("mask %s %dx%d tile=%d: tile %d in-degree %d, want in [%d, 4]", m, rows, cols, tile, idx, indeg[idx], preds[idx])
			}
		}
		sources := 0
		for _, d := range indeg {
			if d == 0 {
				sources++
			}
		}
		if q := len(e.ready); q != sources {
			t.Fatalf("mask %s %dx%d tile=%d: %d tiles seeded ready, want %d zero-in-degree tiles", m, rows, cols, tile, q, sources)
		}

		want, err := Solve(p)
		if err != nil {
			t.Skip()
		}
		for _, solve := range []func() (*table.Grid[int64], error){
			func() (*table.Grid[int64], error) { return SolveAsyncContext(context.Background(), p, opts) },
			func() (*table.Grid[int64], error) { return SolveTiledContext(context.Background(), p, tile, opts) },
		} {
			got, err := solve()
			if err != nil {
				t.Fatal(err)
			}
			if !table.EqualComparable(want, got) {
				t.Fatalf("mask %s %dx%d tile=%d workers=%d: engine differs from oracle", m, rows, cols, tile, opts.NativeWorkers)
			}
		}
	})
}

// FuzzPoolEquivalence drives the tile engine — flat kernel, tile DAG,
// skewed NE tiles, depth-first continuation — with arbitrary masks, grid
// shapes (including the 1xN, Nx1 and 2x2 degenerates), worker counts
// and tile sizes, and checks cell-for-cell equality with the sequential
// reference.
func FuzzPoolEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(9), uint8(4), uint8(8))
	f.Add(uint8(6), uint8(1), uint8(64), uint8(3), uint8(1))  // 1xN row
	f.Add(uint8(12), uint8(64), uint8(1), uint8(2), uint8(0)) // Nx1 column
	f.Add(uint8(9), uint8(2), uint8(2), uint8(7), uint8(255)) // 2x2 minimal
	f.Fuzz(func(t *testing.T, mi, r, c, workers, tl uint8) {
		masks := AllDepMasks()
		m := masks[int(mi)%len(masks)]
		rows := int(r%64) + 1
		cols := int(c%64) + 1
		tile := int(tl%70) + 1
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			t.Skip()
		}
		got, err := SolveTiledContext(context.Background(), p, tile, Options{NativeWorkers: int(workers % 9)})
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(want, got) {
			t.Fatalf("mask %s %dx%d workers=%d tile=%d: engine differs", m, rows, cols, workers%9, tile)
		}
	})
}
