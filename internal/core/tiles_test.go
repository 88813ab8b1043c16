package core

import (
	"context"
	"strings"
	"testing"
)

// TestNativeEntryPointsValidateOptions checks every exported native entry
// point, 2-D and 3-D, rejects a worker count past MaxNativeWorkers before
// starting any worker, with the Validate error.
func TestNativeEntryPointsValidateOptions(t *testing.T) {
	bad := Options{NativeWorkers: MaxNativeWorkers + 1}
	ctx := context.Background()
	p := testProblem(DepW|DepN, 16, 16)
	p3 := testProblem3(Dep3X|Dep3Y|Dep3Z, 4, 4, 4)
	cases := []struct {
		name string
		run  func() error
	}{
		{"SolveParallelContext", func() error { _, err := SolveParallelContext(ctx, p, bad); return err }},
		{"SolveParallelOpt", func() error { _, err := SolveParallelOpt(p, bad); return err }},
		{"SolveTiledContext", func() error { _, err := SolveTiledContext(ctx, p, 4, bad); return err }},
		{"SolveAsyncContext", func() error { _, err := SolveAsyncContext(ctx, p, bad); return err }},
		{"SolveAsyncOpt", func() error { _, err := SolveAsyncOpt(p, bad); return err }},
		{"NewAsyncWorkload", func() error { _, _, err := NewAsyncWorkload(ctx, p, bad); return err }},
		{"NewWorkload", func() error { _, _, err := NewWorkload(p, bad); return err }},
		{"SolveParallel3Context", func() error { _, err := SolveParallel3Context(ctx, p3, bad); return err }},
		{"SolveTiled3Context", func() error { _, err := SolveTiled3Context(ctx, p3, 2, bad.NativeWorkers); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil || !strings.Contains(err.Error(), "NativeWorkers") {
				t.Fatalf("err = %v, want the NativeWorkers limit error", err)
			}
		})
	}
}

// TestTileEngineShapes pins the tile geometry: square tiles for NE-free
// masks, skewed tiles at least 2 cells wide for masks containing NE (the
// 40x30 table spans 69 skewed columns), one whole-table tile at one
// worker, and the worker count capped at the tile count.
func TestTileEngineShapes(t *testing.T) {
	cases := []struct {
		m                    DepMask
		tile, workers        int
		th, tw, skew, wantWk int
	}{
		{DepW | DepN, 8, 4, 8, 8, 0, 4},
		{DepNW, 8, 4, 8, 8, 0, 4},
		{DepW | DepNE, 8, 4, 8, 8, 1, 4},
		{DepNW | DepN | DepNE, 8, 4, 8, 8, 1, 4},
		{DepNE, 1, 4, 1, 2, 1, 4},
		{DepW | DepNE, 100, 4, 40, 69, 1, 1},
		{DepW | DepNE, 8, 1, 40, 30, 0, 1},
		{DepW | DepN, 100, 4, 40, 30, 0, 1},
		{DepW | DepN, 20, 16, 20, 20, 0, 4},
	}
	for _, c := range cases {
		e, _, err := newTileEngine(context.Background(), testProblem(c.m, 40, 30), c.tile, Options{NativeWorkers: c.workers}, "test")
		if err != nil {
			t.Fatal(err)
		}
		if e.th != c.th || e.tw != c.tw || e.skew != c.skew || e.workers != c.wantWk {
			t.Errorf("mask %s tile %d workers %d: tiles %dx%d skew %d with %d workers, want %dx%d skew %d with %d",
				c.m, c.tile, c.workers, e.th, e.tw, e.skew, e.workers, c.th, c.tw, c.skew, c.wantWk)
		}
	}
}
