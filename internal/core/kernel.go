package core

import (
	"repro/internal/table"
)

// Chunk kernels shared by the native runtimes. Historically this code
// lived inside pool.go, the per-solve worker pool; the process-wide
// scheduler (internal/sched) runs chunks of many solves on one worker set,
// so the kernel construction — flat-slice cell evaluation and the
// front-indexed run(t, lo, hi) closures — is extracted here where both
// runtimes (and Workload, the untyped handle the scheduler consumes) can
// build on it without going through a *Problem-typed executor.

// flatKernel evaluates cells straight on a row-major backing slice. The
// generic gatherNeighbors path costs four non-inlined shape-generic calls
// per cell; here the neighbour loads are written out by hand against the
// flat slice, with the contributing-set flags hoisted out of the Deps mask
// and an interior fast path that skips the per-neighbour bounds checks.
type flatKernel[T any] struct {
	data                     []T
	rows, cols               int
	p                        *Problem[T]
	hasW, hasNW, hasN, hasNE bool
}

func newFlatKernel[T any](p *Problem[T], data []T, rows, cols int) *flatKernel[T] {
	return &flatKernel[T]{
		data: data, rows: rows, cols: cols, p: p,
		hasW:  p.Deps.Has(DepW),
		hasNW: p.Deps.Has(DepNW),
		hasN:  p.Deps.Has(DepN),
		hasNE: p.Deps.Has(DepNE),
	}
}

// cell evaluates (i, j). Interior cells (every neighbour in the table)
// read the flat slice directly; edge cells fall back to edgeCell.
func (k *flatKernel[T]) cell(i, j int) {
	base := i*k.cols + j
	if i > 0 && j > 0 && j+1 < k.cols {
		var nb Neighbors[T]
		up := base - k.cols
		if k.hasW {
			nb.W = k.data[base-1]
		}
		if k.hasNW {
			nb.NW = k.data[up-1]
		}
		if k.hasN {
			nb.N = k.data[up]
		}
		if k.hasNE {
			nb.NE = k.data[up+1]
		}
		k.data[base] = k.p.F(i, j, nb)
		return
	}
	k.edgeCell(i, j, base)
}

// edgeCell evaluates a cell on the table's top, left, or right edge, where
// at least one neighbour read resolves through the boundary function.
func (k *flatKernel[T]) edgeCell(i, j, base int) {
	var nb Neighbors[T]
	if k.hasW {
		if j > 0 {
			nb.W = k.data[base-1]
		} else {
			nb.W = k.p.boundary(i, j-1)
		}
	}
	if k.hasNW {
		if i > 0 && j > 0 {
			nb.NW = k.data[base-k.cols-1]
		} else {
			nb.NW = k.p.boundary(i-1, j-1)
		}
	}
	if k.hasN {
		if i > 0 {
			nb.N = k.data[base-k.cols]
		} else {
			nb.N = k.p.boundary(i-1, j)
		}
	}
	if k.hasNE {
		if i > 0 && j+1 < k.cols {
			nb.NE = k.data[base-k.cols+1]
		} else {
			nb.NE = k.p.boundary(i-1, j+1)
		}
	}
	k.data[base] = k.p.F(i, j, nb)
}

// fillRowMajor sweeps the whole table in row-major order, the cache-optimal
// serial schedule (dependency-safe for every contributing set, as in
// Solve). The single-worker degenerate case of the pool uses it: wavefront
// order buys nothing without concurrency and walks the row-major slice with
// a cols-sized stride. Cancellation is polled once per row.
func (k *flatKernel[T]) fillRowMajor(done <-chan struct{}) (int, bool) {
	for i := 0; i < k.rows; i++ {
		if isDone(done) {
			return i, false
		}
		for j := 0; j < k.cols; j++ {
			k.cell(i, j)
		}
	}
	return k.rows, true
}

// frontRunner builds the run(t, lo, hi) kernel for a canonical wavefront
// space over a grid. When the grid is row-major the kernel walks the front
// with an incremental (i, j) cursor over the flat kernel — the per-cell
// Wavefronts.Cell call of the generic path recomputes the front span for
// every cell, which dominates the per-cell budget for cheap recurrences.
//
// The returned closure is safe for concurrent calls on disjoint ranges of
// one front, which is what lets the pool and the scheduler run chunks of
// the same front on different workers.
func frontRunner[T any](p *Problem[T], w Wavefronts, g *table.Grid[T]) func(t, lo, hi int) {
	if flat := g.RowMajorData(); flat != nil {
		k := newFlatKernel(p, flat, g.Rows(), g.Cols())
		switch w.Pattern {
		case AntiDiagonal:
			return func(t, lo, hi int) {
				first, _ := table.AntiDiagSpan(w.Rows, w.Cols, t)
				i, j := first+lo, t-first-lo
				for n := hi - lo; n > 0; n-- {
					k.cell(i, j)
					i++
					j--
				}
			}
		case Horizontal:
			return func(t, lo, hi int) {
				for j := lo; j < hi; j++ {
					k.cell(t, j)
				}
			}
		case InvertedL:
			return func(t, lo, hi int) {
				rowLen := w.Cols - t
				for n := lo; n < hi; n++ {
					if n < rowLen {
						k.cell(t, t+n)
					} else {
						k.cell(t+1+(n-rowLen), t)
					}
				}
			}
		case KnightMove:
			return func(t, lo, hi int) {
				first, _ := table.KnightSpan(w.Rows, w.Cols, t)
				i, j := first+lo, t-2*(first+lo)
				for n := hi - lo; n > 0; n-- {
					k.cell(i, j)
					i++
					j -= 2
				}
			}
		}
	}
	// Generic path: within a front all cells are independent, and all
	// contributing neighbours lie on earlier fronts, so concurrent writers
	// never touch a cell another worker reads.
	rd := gridReader[T]{g}
	return func(t, lo, hi int) {
		for n := lo; n < hi; n++ {
			i, j := w.Cell(t, n)
			g.Set(i, j, p.F(i, j, gatherNeighbors(p, rd, i, j)))
		}
	}
}
