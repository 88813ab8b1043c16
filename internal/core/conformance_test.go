// Differential conformance suite: every public executor path must produce
// the byte-identical table for every dependency mask on every adversarial
// shape. The sequential solver is the oracle; the tile engine — at every
// tile size in engineMatrixTiles and 1 to 4 workers, through each of its
// entry points — and scheduler-submitted solves (front chunks and engine
// loops) are the candidates. Instances are drawn from a seeded
// wraparound-mixing generator, so a failure report (mask, shape,
// executor, seed, first mismatching cell) reproduces the instance
// exactly.
//
// The suite lives in package core_test (not core) because the scheduler
// path imports internal/sched, which imports core.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/table"
)

// confProblem builds a seeded adversarial instance: the recurrence mixes
// every contributing neighbour and the cell position through wraparound
// multiply-xor steps (splitmix-style), so reordered or repeated reads and
// torn fronts change the output with overwhelming probability, unlike
// recurrences built from associative-commutative ops alone.
func confProblem(seed int64, m core.DepMask, rows, cols int) *core.Problem[int64] {
	mix := func(v int64) int64 {
		v *= -7046029254386353131 // odd constant; wraparound is the point
		v ^= int64(uint64(v) >> 29)
		v *= -4658895280553007687
		v ^= int64(uint64(v) >> 32)
		return v
	}
	return &core.Problem[int64]{
		Name: fmt.Sprintf("conf-%s-%dx%d", m, rows, cols),
		Rows: rows,
		Cols: cols,
		Deps: m,
		F: func(i, j int, nb core.Neighbors[int64]) int64 {
			v := seed + int64(i)*1_000_003 + int64(j)
			if m.Has(core.DepW) {
				v = mix(v + 3*nb.W)
			}
			if m.Has(core.DepNW) {
				v = mix(v ^ nb.NW)
			}
			if m.Has(core.DepN) {
				v = mix(v + nb.N<<1)
			}
			if m.Has(core.DepNE) {
				v = mix(v - nb.NE)
			}
			return v
		},
		Boundary: func(i, j int) int64 {
			return mix(seed ^ (int64(i) << 20) ^ int64(j))
		},
		BytesPerCell: 8,
	}
}

// conformanceShapes are the adversarial dimensions: degenerate rows and
// columns, extreme aspect ratios in both directions, prime dimensions
// (no alignment with chunk or tile sizes), sides one off a tile
// multiple, and a square control.
var conformanceShapes = [][2]int{
	{1, 1},
	{1, 33},
	{1, 257}, // single row wider than every chunk/inline cutoff in the matrix
	{33, 1},
	{101, 1}, // knight fronts past the scheduler publish boundary are empty at odd t
	{3, 101}, // rows << cols
	{101, 3}, // cols << rows
	{31, 37}, // primes
	{15, 13}, // one past 2*7 and 3*4, one short of 2*7
	{182, 4}, // one row past the default tile
	{4, 180}, // one column short of the default tile
	{48, 48},
}

// engineMatrixTiles are the tile sizes the matrix runs the engine at:
// single cells, small and odd tiles, the default, and one larger than
// every shape (the whole table is one tile).
var engineMatrixTiles = []int{1, 2, 3, 7, core.DefaultTile(8), 1000}

// executorCase is one candidate executor path under test.
type executorCase struct {
	name string
	run  func(p *core.Problem[int64]) (*table.Grid[int64], error)
}

// conformanceExecutors builds the candidate list. Worker counts above the
// machine's core count and tiny chunks/tiles are deliberate: they force
// multi-chunk fronts and many-tile DAGs even on small tables.
func conformanceExecutors(s *sched.Scheduler) []executorCase {
	execs := []executorCase{
		{"SolveParallelContext", func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return core.SolveParallelContext(context.Background(), p, core.Options{NativeWorkers: 4})
		}},
		{"SolveParallelOpt/1worker", func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return core.SolveParallelOpt(p, core.Options{NativeWorkers: 1})
		}},
		{"Scheduler", func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return sched.Solve(context.Background(), s, p, sched.SubmitOptions{Chunk: 8})
		}},
		{"SolveAsyncContext", func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return core.SolveAsyncContext(context.Background(), p, core.Options{NativeWorkers: 4})
		}},
		{"SchedulerAsync", func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			wl, finish, err := core.NewAsyncWorkload(context.Background(), p, core.Options{NativeWorkers: 3})
			if err != nil {
				return nil, err
			}
			h, err := s.Submit(context.Background(), wl, sched.SubmitOptions{Chunk: 1})
			if err != nil {
				return nil, err
			}
			if err := h.Wait(); err != nil {
				return nil, err
			}
			return finish(), nil
		}},
	}
	for _, tile := range engineMatrixTiles {
		for workers := 1; workers <= 4; workers++ {
			tile, workers := tile, workers
			execs = append(execs, executorCase{
				fmt.Sprintf("SolveTiledContext/tile%d/w%d", tile, workers),
				func(p *core.Problem[int64]) (*table.Grid[int64], error) {
					return core.SolveTiledContext(context.Background(), p, tile, core.Options{NativeWorkers: workers})
				},
			})
		}
	}
	return execs
}

// reportMismatch renders a reproducible failure: the instance coordinates
// plus the first differing cell.
func reportMismatch(t *testing.T, exec string, seed int64, m core.DepMask, rows, cols int, want, got *table.Grid[int64]) {
	t.Helper()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if want.At(i, j) != got.At(i, j) {
				t.Errorf("%s: mask=%s shape=%dx%d seed=%d: first mismatch at (%d,%d): got %d, want %d",
					exec, m, rows, cols, seed, i, j, got.At(i, j), want.At(i, j))
				return
			}
		}
	}
	t.Errorf("%s: mask=%s shape=%dx%d seed=%d: grids differ but no cell mismatch (dimension mismatch?)",
		exec, m, rows, cols, seed)
}

// TestConformanceAllMasksAllExecutors is the full differential matrix:
// 15 masks x 12 shapes x every executor path, exact table equality.
func TestConformanceAllMasksAllExecutors(t *testing.T) {
	s, err := sched.New(sched.Config{Workers: 4, Chunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	execs := conformanceExecutors(s)
	const seed = int64(0x5eed_1dd9)
	for _, m := range core.AllDepMasks() {
		for _, d := range conformanceShapes {
			rows, cols := d[0], d[1]
			p := confProblem(seed, m, rows, cols)
			want, err := core.Solve(p)
			if err != nil {
				t.Fatalf("oracle: mask=%s shape=%dx%d: %v", m, rows, cols, err)
			}
			for _, ex := range execs {
				got, err := ex.run(p)
				if err != nil {
					t.Errorf("%s: mask=%s shape=%dx%d seed=%d: %v", ex.name, m, rows, cols, seed, err)
					continue
				}
				if !table.EqualComparable(want, got) {
					reportMismatch(t, ex.name, seed, m, rows, cols, want, got)
				}
			}
		}
	}
}

// TestConformanceSeedSweep re-runs a reduced matrix over several seeds so
// the suite is not blind to a value-dependent bug that a single seed
// happens to miss.
func TestConformanceSeedSweep(t *testing.T) {
	s, err := sched.New(sched.Config{Workers: 4, Chunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	execs := conformanceExecutors(s)
	masks := []core.DepMask{
		core.DepW | core.DepN,  // anti-diagonal
		core.DepN,              // horizontal
		core.DepW,              // vertical (transposed)
		core.DepNW,             // inverted-L
		core.DepNE,             // mirrored inverted-L
		core.DepW | core.DepNE, // knight-move
		core.DepW | core.DepNW | core.DepN | core.DepNE, // full mask
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, m := range masks {
			p := confProblem(seed, m, 29, 43)
			want, err := core.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, ex := range execs {
				got, err := ex.run(p)
				if err != nil {
					t.Errorf("%s: mask=%s seed=%d: %v", ex.name, m, seed, err)
					continue
				}
				if !table.EqualComparable(want, got) {
					reportMismatch(t, ex.name, seed, m, 29, 43, want, got)
				}
			}
		}
	}
}

// TestConformanceSchedulerAsyncCancel cancels a scheduled engine workload
// from inside the recurrence: the submission must end in *Canceled with
// Front a row index in [0, rows], and must not compute the whole table.
func TestConformanceSchedulerAsyncCancel(t *testing.T) {
	s, err := sched.New(sched.Config{Workers: 4, Chunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const rows, cols = 512, 512
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cells atomic.Int64
	p := confProblem(7, core.DepW|core.DepNW|core.DepN, rows, cols)
	inner := p.F
	p.F = func(i, j int, nb core.Neighbors[int64]) int64 {
		if cells.Add(1) == 5000 {
			cancel()
		}
		return inner(i, j, nb)
	}
	wl, _, err := core.NewAsyncWorkload(ctx, p, core.Options{NativeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit(ctx, wl, sched.SubmitOptions{Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = h.Wait()
	var c *core.Canceled
	if !errors.As(err, &c) {
		t.Fatalf("err = %v (%T), want *core.Canceled", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v does not unwrap to context.Canceled", err)
	}
	if c.Front < 0 || c.Front > rows {
		t.Errorf("Canceled.Front = %d, want a row index in [0, %d]", c.Front, rows)
	}
	if total := cells.Load(); total >= rows*cols {
		t.Errorf("workload computed all %d cells despite cancellation", total)
	}
}
