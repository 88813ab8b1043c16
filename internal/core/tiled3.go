package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/table"
)

// SolveTiled3Context is the 3-D analogue of SolveTiledContext: the box is partitioned
// into tile^3 blocks, blocks are scheduled along block-level anti-diagonal
// planes (bi+bj+bk = s), blocks on a plane run on separate goroutines, and
// each block fills lexicographically for locality.
//
// Block-level safety holds for every 3-D contributing set: each cell
// predecessor offset is component-wise <= 0, so a cell in block B can only
// read cells in blocks that are component-wise <= B — all on strictly
// earlier block planes or equal to B itself (and within a block,
// lexicographic fill order is safe for the same reason).
//
// ctx is polled once per block plane (between barriers, so no goroutine
// is abandoned mid-flight). A canceled solve returns a nil grid and a
// *Canceled error.
func SolveTiled3Context[T any](ctx context.Context, p *Problem3[T], tile, workers int) (*table.Grid3[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tile < 1 {
		return nil, fmt.Errorf("core: tile size %d < 1", tile)
	}
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	done := ctxDone(ctx)
	g := table.NewGrid3[T](p.NX, p.NY, p.NZ, nil)

	bx := (p.NX + tile - 1) / tile
	by := (p.NY + tile - 1) / tile
	bz := (p.NZ + tile - 1) / tile

	fillBlock := func(bi, bj, bk int) {
		iHi := min((bi+1)*tile, p.NX)
		jHi := min((bj+1)*tile, p.NY)
		kHi := min((bk+1)*tile, p.NZ)
		for i := bi * tile; i < iHi; i++ {
			for j := bj * tile; j < jHi; j++ {
				for k := bk * tile; k < kHi; k++ {
					g.Set(i, j, k, p.F(i, j, k, gather3(p, g, i, j, k)))
				}
			}
		}
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for s := 0; s <= bx+by+bz-3; s++ {
		if isDone(done) {
			return nil, canceledErr(ctx, "tiled3", s)
		}
		// Enumerate blocks on plane s.
		type blk struct{ bi, bj, bk int }
		var blocks []blk
		for bi := max(0, s-(by-1)-(bz-1)); bi <= min(bx-1, s); bi++ {
			firstJ, count := table.PlaneRowSpan(by, bz, s, bi)
			for jj := 0; jj < count; jj++ {
				bj := firstJ + jj
				blocks = append(blocks, blk{bi, bj, s - bi - bj})
			}
		}
		if len(blocks) == 1 || workers == 1 {
			for _, b := range blocks {
				fillBlock(b.bi, b.bj, b.bk)
			}
			continue
		}
		for _, b := range blocks {
			wg.Add(1)
			sem <- struct{}{}
			go func(b blk) {
				defer wg.Done()
				fillBlock(b.bi, b.bj, b.bk)
				<-sem
			}(b)
		}
		wg.Wait()
	}
	return g, nil
}
