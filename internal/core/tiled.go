package core

import (
	"context"
	"fmt"

	"repro/internal/table"
	"repro/internal/trace"
)

// SolveTiledContext fills the DP table with the cache-efficient tiled scheme of
// the CPU-only line of work the paper builds on (Chowdhury & Ramachandran's
// CMP algorithms): the table is partitioned into blocks, blocks are
// scheduled along *block-level* wavefronts, blocks on a front run on
// separate goroutines, and each block is filled sequentially in row-major
// order for locality.
//
// Block-level dependencies are coarser than cell-level ones: a cell's NW
// neighbour can live in the block to the *west* (same block row), so the
// block mask must be derived from the cell mask (deriveBlockMask), not
// copied. Masks containing NE are special: a non-top-row cell's NE
// neighbour can live in the block to the *east*, which no forward block
// order satisfies — those problems tile into 1-row-high strips instead,
// under which every dependency points to the current or previous row of
// blocks.
//
// This is the framework's multicore *baseline*: SolveParallelContext
// barrier-synchronizes every cell wavefront, while SolveTiledContext
// barriers once per block wavefront and touches memory block by block.
//
// Options carries the worker count (NativeWorkers) and the optional
// Collector and Tracer. ctx is polled by the block pool once per claim; a
// canceled solve returns a nil grid and a *Canceled error. The perfbench
// module calls this entry point.
func SolveTiledContext[T any](ctx context.Context, p *Problem[T], tile int, opts Options) (grid *table.Grid[T], err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tile < 1 {
		return nil, fmt.Errorf("core: tile size %d < 1", tile)
	}
	workers := opts.NativeWorkers
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	cp, _, _, undo := canonicalize(p)

	g := table.NewGrid[T](cp.Rows, cp.Cols, nil)
	rd := gridReader[T]{g}

	tileRows, tileCols := tile, tile
	if cp.Deps.Has(DepNE) {
		tileRows = 1
	}
	blockRows := (cp.Rows + tileRows - 1) / tileRows
	blockCols := (cp.Cols + tileCols - 1) / tileCols

	blockMask := deriveBlockMask(cp.Deps, tileRows)
	blockPattern, _ := CanonicalPattern(Classify(blockMask))
	bw := NewWavefronts(blockPattern, blockRows, blockCols)

	if c := opts.Collector; c != nil {
		c.SolveStart(SolveInfo{
			Solver: "tiled", Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: blockPattern.String(),
			Rows: cp.Rows, Cols: cp.Cols, Fronts: bw.Fronts, Workers: workers,
		})
		for t := 0; t < bw.Fronts; t++ {
			c.FrontSize(bw.Size(t))
		}
		defer func() { c.SolveEnd(err) }()
	}
	if tr := opts.Tracer; tr != nil {
		tr.BeginSolve(trace.Meta{
			Solver: "tiled", Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: blockPattern.String(),
			Rows: cp.Rows, Cols: cp.Cols, Fronts: bw.Fronts, Workers: workers,
		})
		defer tr.EndSolve()
	}

	fillBlock := func(bi, bj int) {
		iLo, iHi := bi*tileRows, min((bi+1)*tileRows, cp.Rows)
		jLo, jHi := bj*tileCols, min((bj+1)*tileCols, cp.Cols)
		for i := iLo; i < iHi; i++ {
			for j := jLo; j < jHi; j++ {
				g.Set(i, j, cp.F(i, j, gatherNeighbors(cp, rd, i, j)))
			}
		}
	}

	// Blocks are coarse units, so the pool claims one block per cursor bump
	// (chunk=1); the chunk doubling as serial cutoff means single-block
	// fronts run inline on the advancing worker.
	cfg := poolConfig{
		solver: "tiled", phase: "blocks", workers: workers, chunk: 1,
		coll: opts.Collector, rec: opts.Tracer,
	}
	err = runWavefronts(ctx, cfg, bw.Fronts, bw.Size, func(t, lo, hi int) {
		for k := lo; k < hi; k++ {
			bi, bj := bw.Cell(t, k)
			fillBlock(bi, bj)
		}
	})
	if err != nil {
		return nil, err
	}
	return undo(g), nil
}

// deriveBlockMask lifts a cell-level contributing set to block
// granularity: for each cell dependency offset, the union of block offsets
// it can land in, excluding the block itself. tileRows == 1 guarantees the
// NE offset never lands in the same block row's east block (the caller
// enforces this for NE-containing masks).
//
//	cell W  (0,-1)  -> block W
//	cell NW (-1,-1) -> blocks W, NW, N   (W only when tileRows > 1)
//	cell N  (-1,0)  -> block N
//	cell NE (-1,1)  -> blocks N, NE      (requires tileRows == 1)
func deriveBlockMask(m DepMask, tileRows int) DepMask {
	var out DepMask
	if m.Has(DepW) {
		out |= DepW
	}
	if m.Has(DepNW) {
		out |= DepNW | DepN
		if tileRows > 1 {
			out |= DepW
		}
	}
	if m.Has(DepN) {
		out |= DepN
	}
	if m.Has(DepNE) {
		if tileRows > 1 {
			panic("core: NE-containing masks require 1-row tiles")
		}
		out |= DepN | DepNE
	}
	return out
}

// DefaultTile returns the largest tile size whose block (tile x tile cells
// at bytesPerCell each) still fits a typical per-core L2 slice of 256 KiB.
func DefaultTile(bytesPerCell int) int {
	if bytesPerCell <= 0 {
		bytesPerCell = 8
	}
	const budget = 256 << 10
	t := 1
	for (t+1)*(t+1)*bytesPerCell <= budget {
		t++
	}
	return t
}
