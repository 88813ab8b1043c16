package core

import (
	"context"
	"testing"

	"repro/internal/table"
	"repro/internal/trace"
)

// traceKinds aggregates an event stream by kind.
func traceKinds(evs []trace.Event) map[trace.Kind]int {
	m := map[trace.Kind]int{}
	for _, e := range evs {
		m[e.Kind]++
	}
	return m
}

// TestPoolTraceCoversAllCells checks the engine's tile spans account for
// every cell exactly once, one span per tile, and that the traced solve
// still computes the right table.
func TestPoolTraceCoversAllCells(t *testing.T) {
	p := testProblem(DepW|DepN, 64, 57)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 12)
	got, err := SolveTiledContext(context.Background(), p, 16,
		Options{NativeWorkers: 4, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Fatal("traced solve computed a different table")
	}

	evs := rec.Events()
	if rec.Dropped() != 0 {
		t.Fatalf("trace dropped %d events; grow the test ring", rec.Dropped())
	}
	var cells int64
	perRow := map[int32]int64{}
	for _, e := range evs {
		if e.Kind == trace.KindTask {
			cells += e.B - e.A
			perRow[e.Front] += e.B - e.A
		}
	}
	if cells != 64*57 {
		t.Errorf("traced %d cells total, want %d", cells, 64*57)
	}
	// Tile rows start every 16 rows; each covers 16 full rows but the last.
	for r := int32(0); r < 64; r += 16 {
		if got := perRow[r]; got != 16*57 {
			t.Errorf("tile row at %d traced %d cells, want %d", r, got, 16*57)
		}
	}

	kinds := traceKinds(evs)
	if kinds[trace.KindSolve] != 1 {
		t.Errorf("KindSolve count = %d, want 1", kinds[trace.KindSolve])
	}
	if got, want := kinds[trace.KindTask], 4*4; got != want {
		t.Errorf("KindTask count = %d, want %d (one per tile)", got, want)
	}
	if kinds[trace.KindBarrier] != 0 || kinds[trace.KindFront] != 0 {
		t.Errorf("engine trace kinds = %v, want no barrier or front events", kinds)
	}
	meta := rec.Meta()
	if meta.Solver != "pool" || meta.Workers != 4 || meta.Clock != "wall" {
		t.Errorf("meta = %+v", meta)
	}
}

// TestTiledTraceSolves checks the explicit-tile entry point wires the
// tracer, including the single-worker floor sweep (one span).
func TestTiledTraceSolves(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN, 64, 64)
	for _, workers := range []int{1, 2} {
		rec := trace.NewRecorder(1 << 12)
		if _, err := SolveTiledContext(context.Background(), p, 16,
			Options{NativeWorkers: workers, Tracer: rec}); err != nil {
			t.Fatal(err)
		}
		kinds := traceKinds(rec.Events())
		if kinds[trace.KindTask] == 0 {
			t.Errorf("workers=%d: trace kinds = %v, want tile spans", workers, kinds)
		}
		if workers == 1 && kinds[trace.KindTask] != 1 {
			t.Errorf("1-worker trace has %d tile spans, want the one floor sweep", kinds[trace.KindTask])
		}
		if meta := rec.Meta(); meta.Solver != "pool" || meta.Workers != workers {
			t.Errorf("meta = %+v, want pool with %d workers", meta, workers)
		}
	}
}

// TestSimTraceImportsTimeline checks a simulated solve imports its
// timeline onto the tracer with the simulated clock.
func TestSimTraceImportsTimeline(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN, 64, 64)
	rec := trace.NewRecorder(1 << 12)
	if _, err := SolveHetero(p, Options{TSwitch: -1, TShare: -1, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	if meta := rec.Meta(); meta.Clock != "sim" || meta.Solver != "hetero" {
		t.Errorf("meta = %+v, want sim-clock hetero trace", rec.Meta())
	}
	kinds := traceKinds(rec.Events())
	if kinds[trace.KindPhase] == 0 {
		t.Errorf("sim trace kinds = %v, want imported phase spans", kinds)
	}
}
