package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/table"
)

// patternMasks picks one representative contributing set per dependency
// pattern, covering all six paper patterns including the two the
// simulated executors reach through symmetry adapters (Vertical ->
// transposed Horizontal, mInverted-L -> mirrored Inverted-L); the tile
// engine runs every mask as is.
var patternMasks = map[string]DepMask{
	"anti-diagonal": DepW | DepNW | DepN,
	"horizontal":    DepNW | DepN | DepNE,
	"vertical":      DepW | DepNW,
	"inverted-l":    DepNW,
	"m-inverted-l":  DepNE,
	"knight-move":   DepW | DepNE,
}

// checkPoolMatchesSolve cross-checks the tile engine against the
// sequential reference cell-for-cell: through SolveParallelOpt at the
// default tile, and through SolveTiledContext at tile (when >= 1).
func checkPoolMatchesSolve(t *testing.T, m DepMask, rows, cols, tile int, opts Options) {
	t.Helper()
	p := testProblem(m, rows, cols)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveParallelOpt(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Fatalf("mask %s %dx%d opts %+v: default-tile engine differs from Solve", m, rows, cols, opts)
	}
	if tile < 1 {
		return
	}
	got, err = SolveTiledContext(context.Background(), p, tile, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Fatalf("mask %s %dx%d tile %d opts %+v: engine differs from Solve", m, rows, cols, tile, opts)
	}
}

// TestPoolMatchesSolveAllPatterns stress-tests the tile engine across all
// six dependency patterns with worker counts and tile sizes chosen to
// force every execution shape: the one-tile floor sweep, single-cell
// tiles, skewed NE tiles, ragged edge tiles, and more workers than ready
// tiles. Run under -race this doubles as the synchronization soundness
// test.
func TestPoolMatchesSolveAllPatterns(t *testing.T) {
	for name, m := range patternMasks {
		t.Run(name, func(t *testing.T) {
			for _, dims := range [][2]int{{61, 67}, {128, 31}, {37, 128}} {
				for _, workers := range []int{1, 2, 3, 7} {
					for _, tile := range []int{1, 7, 16} {
						checkPoolMatchesSolve(t, m, dims[0], dims[1], tile, Options{NativeWorkers: workers})
					}
				}
			}
		})
	}
}

// TestPoolChunkingEdgeCases keeps the shapes that pinned the old front
// pool's chunking regressions, now as tile-engine edge cases: tables
// smaller than the worker count, tables one cell past a tile boundary,
// the single-worker floor sweep, single-cell tiles, and a tile larger
// than the table.
func TestPoolChunkingEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		tile       int
		opts       Options
	}{
		{"size-smaller-than-workers", 3, 4, 1, Options{NativeWorkers: 16}},
		{"size-eq-chunk-plus-one", 17, 17, 16, Options{NativeWorkers: 3}},
		{"workers-one", 40, 40, 8, Options{NativeWorkers: 1}},
		{"chunk-one", 12, 19, 1, Options{NativeWorkers: 5}},
		{"chunk-larger-than-any-front", 30, 30, 4096, Options{NativeWorkers: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range patternMasks {
				checkPoolMatchesSolve(t, m, tc.rows, tc.cols, tc.tile, tc.opts)
			}
		})
	}
}

// TestPoolOddShapes drives degenerate grid geometries through every
// pattern: single-row, single-column, and minimal square tables.
func TestPoolOddShapes(t *testing.T) {
	for _, dims := range [][2]int{{1, 64}, {64, 1}, {2, 2}, {1, 1}, {2, 63}} {
		for _, m := range patternMasks {
			checkPoolMatchesSolve(t, m, dims[0], dims[1], 1, Options{NativeWorkers: 4})
			checkPoolMatchesSolve(t, m, dims[0], dims[1], 3, Options{NativeWorkers: 4})
		}
	}
}

// TestPoolAllMasks sweeps all 15 contributing sets through the engine at
// a small tile, the same coverage net the hetero fuzz target uses.
func TestPoolAllMasks(t *testing.T) {
	for _, m := range AllDepMasks() {
		checkPoolMatchesSolve(t, m, 33, 45, 4, Options{NativeWorkers: 3})
	}
}

// TestRunWavefrontsCoverage checks the 3-D plane pool driver claims every
// cell of every front exactly once, independent of any grid.
func TestRunWavefrontsCoverage(t *testing.T) {
	sizes := []int{0, 1, 3, 700, 513, 512, 2, 1025, 0, 9}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{0, 1, 7, 512} {
			var mu sync.Mutex
			seen := make([][]bool, len(sizes))
			for t := range sizes {
				seen[t] = make([]bool, sizes[t])
			}
			cfg := poolConfig{solver: "pool", phase: "fill", workers: workers, chunk: chunk}
			runWavefronts(context.Background(), cfg, len(sizes), func(t int) int { return sizes[t] },
				func(ft, lo, hi int) {
					mu.Lock()
					for k := lo; k < hi; k++ {
						if seen[ft][k] {
							t.Errorf("workers=%d chunk=%d: cell (%d,%d) computed twice", workers, chunk, ft, k)
						}
						seen[ft][k] = true
					}
					mu.Unlock()
				})
			for ft := range seen {
				for k, ok := range seen[ft] {
					if !ok {
						t.Fatalf("workers=%d chunk=%d: cell (%d,%d) never computed", workers, chunk, ft, k)
					}
				}
			}
		}
	}
}
