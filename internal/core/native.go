package core

import (
	"context"

	"repro/internal/table"
)

// SolveParallelContext fills the DP table using real goroutines on the
// host: the problem is symmetry-reduced to its canonical pattern and each
// wavefront is split across workers. This is the framework's native
// multicore executor — it produces the same values as Solve and is what
// the examples use to solve problems for real.
//
// Execution runs on the persistent worker-pool runtime of pool.go:
// workers start once per solve, pull dynamic chunks off each front, and
// cross fronts through a reusable epoch barrier (or, for
// Horizontal-pattern problems, per-row neighbour handoff). The Options
// knobs honored are NativeWorkers (<= 0 selects min(GOMAXPROCS, NumCPU)),
// NativeChunk, NativeNoLookahead, Collector and Tracer; all other fields
// are ignored — the native executor involves no simulated platform.
//
// The pool polls ctx at chunk granularity and a cancel or deadline expiry
// shuts the workers down promptly. The interrupted solve returns a nil
// grid and a *Canceled error (unwrapping to the context's cause); the
// partially filled table is discarded. An uncancellable context costs
// nothing on the hot path.
func SolveParallelContext[T any](ctx context.Context, p *Problem[T], opts Options) (*table.Grid[T], error) {
	return solveParallelPool(ctx, p, opts)
}

// SolveParallelOpt is SolveParallelContext without a context. It stays
// because the perfbench module calls it.
func SolveParallelOpt[T any](p *Problem[T], opts Options) (*table.Grid[T], error) {
	return solveParallelPool(context.Background(), p, opts)
}
