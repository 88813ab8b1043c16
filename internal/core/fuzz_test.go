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

// FuzzAsyncDeps fuzzes the async executor's dependency-counter
// initialization over arbitrary (mask, rows, cols): construction must
// never panic, the counter totals must equal the brute-force edge count
// of the mask's dependency graph (and the seeded ready queue must hold
// exactly the zero-in-degree cells), and a full solve on the same
// small table must match the sequential oracle cell for cell.
func FuzzAsyncDeps(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(9), uint8(4))
	f.Add(uint8(6), uint8(1), uint8(64), uint8(1))  // 1xN row
	f.Add(uint8(12), uint8(64), uint8(1), uint8(3)) // Nx1 column
	f.Add(uint8(9), uint8(2), uint8(2), uint8(7))   // 2x2 minimal
	f.Add(uint8(14), uint8(33), uint8(17), uint8(0))
	f.Fuzz(func(t *testing.T, mi, r, c, workers uint8) {
		masks := AllDepMasks()
		m := masks[int(mi)%len(masks)]
		rows := int(r%64) + 1
		cols := int(c%64) + 1
		p := testProblem(m, rows, cols)

		e, _, _, err := newAsyncEngine(context.Background(), p, Options{NativeWorkers: int(workers % 9)})
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force edge count: each cell contributes one edge per
		// in-bounds dependency under the mask.
		edges, sources := int64(0), int64(0)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				d := int64(0)
				if m.Has(DepW) && j > 0 {
					d++
				}
				if i > 0 {
					if m.Has(DepNW) && j > 0 {
						d++
					}
					if m.Has(DepN) {
						d++
					}
					if m.Has(DepNE) && j+1 < cols {
						d++
					}
				}
				edges += d
				if d == 0 {
					sources++
				}
			}
		}
		var got int64
		for idx := range e.counters {
			got += int64(e.counters[idx].Load())
		}
		if got != edges {
			t.Fatalf("mask %s %dx%d: counter total %d, want edge count %d", m, rows, cols, got, edges)
		}
		if q := e.tail.Load(); q != sources {
			t.Fatalf("mask %s %dx%d: %d cells seeded ready, want %d zero-in-degree cells", m, rows, cols, q, sources)
		}

		want, err := Solve(p)
		if err != nil {
			t.Skip()
		}
		gotGrid, err := SolveAsyncContext(context.Background(), p, Options{NativeWorkers: int(workers % 9)})
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(want, gotGrid) {
			t.Fatalf("mask %s %dx%d workers=%d: async differs from oracle", m, rows, cols, workers%9)
		}
	})
}

// FuzzPoolEquivalence drives the pool runtime — flat kernels, dynamic
// chunking, epoch barrier, band lookahead, symmetry adapters — with
// arbitrary masks, grid shapes (including the 1xN, Nx1 and 2x2
// degenerates), worker counts and chunk sizes, and checks cell-for-cell
// equality with the sequential reference.
func FuzzPoolEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(9), uint8(4), uint8(8), false)
	f.Add(uint8(6), uint8(1), uint8(64), uint8(3), uint8(1), true)   // 1xN row
	f.Add(uint8(12), uint8(64), uint8(1), uint8(2), uint8(0), false) // Nx1 column
	f.Add(uint8(9), uint8(2), uint8(2), uint8(7), uint8(255), false) // 2x2 minimal
	f.Fuzz(func(t *testing.T, mi, r, c, workers, chunk uint8, noLookahead bool) {
		masks := AllDepMasks()
		m := masks[int(mi)%len(masks)]
		rows := int(r%64) + 1
		cols := int(c%64) + 1
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			t.Skip()
		}
		got, err := SolveParallelOpt(p, Options{
			NativeWorkers:     int(workers % 9),
			NativeChunk:       int(chunk),
			NativeNoLookahead: noLookahead,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(want, got) {
			t.Fatalf("mask %s %dx%d workers=%d chunk=%d nolook=%v: pool differs",
				m, rows, cols, workers%9, chunk, noLookahead)
		}
	})
}
