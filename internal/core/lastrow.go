package core

import (
	"context"
	"fmt"
)

// SolveLastRowContext computes only the final row of the DP table using a
// two-row rolling buffer: O(cols) memory instead of O(rows*cols). Every
// contributing set drawn from {W, NW, N, NE} reads at most the previous
// and current rows, so the rolling fill is exact for the whole class.
//
// This serves problems whose answer lives in the last row (edit distances,
// alignment scores, checkerboard minima) when the table would not fit in
// memory; it cannot support traceback — use Solve (full table) or
// problem-specific linear-space reconstructions like HirschbergLCS for
// that.
//
// ctx is polled once per row. A canceled solve returns a nil slice and a
// *Canceled error.
func SolveLastRowContext[T any](ctx context.Context, p *Problem[T]) ([]T, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	done := ctxDone(ctx)
	prev := make([]T, p.Cols)
	cur := make([]T, p.Cols)
	rd := rollingReader[T]{p: p, prev: prev, cur: cur}
	for i := 0; i < p.Rows; i++ {
		if isDone(done) {
			return nil, canceledErr(ctx, "lastrow", i)
		}
		rd.row = i
		for j := 0; j < p.Cols; j++ {
			cur[j] = p.F(i, j, gatherNeighbors(p, rd, i, j))
		}
		prev, cur = cur, prev
		rd.prev, rd.cur = prev, cur
	}
	return prev, nil
}

// rollingReader resolves neighbour reads against the two-row window. The
// solver only ever asks for cells on rows row and row-1 with column offsets
// -1..+1; anything else is a misuse of the window and panics loudly rather
// than returning stale data.
type rollingReader[T any] struct {
	p         *Problem[T]
	prev, cur []T
	row       int
}

func (r rollingReader[T]) at(i, j int) T {
	switch i {
	case r.row:
		return r.cur[j]
	case r.row - 1:
		return r.prev[j]
	default:
		panic(fmt.Sprintf("core: rolling reader asked for row %d while filling row %d", i, r.row))
	}
}

func (r rollingReader[T]) inBounds(i, j int) bool {
	return i >= 0 && i < r.p.Rows && j >= 0 && j < r.p.Cols
}
