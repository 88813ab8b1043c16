package cli

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/lddp"
)

// solve runs inst through lddp.Solve and returns the outcome.
func solve(t *testing.T, inst *Instance, opts ...lddp.Option) *Outcome {
	t.Helper()
	out, err := inst.Solve(context.Background(), opts...)
	if err != nil {
		t.Fatalf("%s: %v", inst.Name, err)
	}
	return out
}

// TestBuildInstanceAllNames solves every problem through every row of the
// strategy table (Multi, which needs accelerators and a horizontal
// pattern, has its own test) and checks each answer against sequential.
func TestBuildInstanceAllNames(t *testing.T) {
	for _, name := range ProblemNames() {
		inst, err := BuildInstance(name, 40, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.Rows < 2 || inst.Cols < 2 {
			t.Errorf("%s: degenerate dims %dx%d", name, inst.Rows, inst.Cols)
		}
		ans := solve(t, inst, lddp.WithStrategy(lddp.Sequential)).Answer
		if !strings.Contains(ans, "=") {
			t.Errorf("%s: answer %q has no key=value form", name, ans)
		}
		for _, row := range lddp.Strategies() {
			if row.Strategy == lddp.Multi {
				continue
			}
			out := solve(t, inst, lddp.WithStrategy(row.Strategy), lddp.WithWorkers(2))
			if out.Answer != ans {
				t.Errorf("%s %s: answer %q != sequential %q", name, row.Name, out.Answer, ans)
			}
			if row.Simulated && len(out.Timeline.Records) == 0 {
				t.Errorf("%s %s: empty timeline", name, row.Name)
			}
		}
	}
}

func TestBuildInstanceErrors(t *testing.T) {
	if _, err := BuildInstance("nope", 16, 1); err == nil {
		t.Error("unknown problem should error")
	}
	if _, err := BuildInstance("lcs", 1, 1); err == nil {
		t.Error("tiny size should error")
	}
}

func TestSolveUnknownStrategy(t *testing.T) {
	inst, err := BuildInstance("lcs", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Solve(context.Background(), lddp.WithStrategy(lddp.Strategy(99))); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestInstanceTune(t *testing.T) {
	inst, err := BuildInstance("levenshtein", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Tune(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SwitchCurve) == 0 || len(res.ShareCurve) == 0 {
		t.Error("tune produced empty curves")
	}
}

func TestProblemNamesSorted(t *testing.T) {
	names := ProblemNames()
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	if len(names) != 8 {
		t.Errorf("expected 8 problems, got %d", len(names))
	}
}

func TestSolveTiledAndResilientAgreeWithSeq(t *testing.T) {
	inst, err := BuildInstance("checkerboard", 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := solve(t, inst, lddp.WithStrategy(lddp.Sequential)).Answer
	tiled := solve(t, inst, lddp.WithStrategy(lddp.Parallel), lddp.WithTile(8), lddp.WithWorkers(2))
	if tiled.Answer != want || tiled.Tile != 8 {
		t.Errorf("tiled %q (tile=%d) != seq %q (tile=8)", tiled.Answer, tiled.Tile, want)
	}
	res, corrected, err := inst.Resilient(3, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Errorf("resilient %q != seq %q (corrected=%d)", res, want, corrected)
	}
	if corrected == 0 {
		t.Error("fault injector never fired at 1% on 2500 cells")
	}
}

// TestSolveTiledDefaultTileFitsCellSize: an unset tile must size the
// Parallel strategy's tiles for the problem's own cell width, so the 8-byte dtw table gets
// smaller tiles than the 4-byte ones and every block fits the L2 budget
// DefaultTile respects.
func TestSolveTiledDefaultTileFitsCellSize(t *testing.T) {
	for _, tc := range []struct {
		problem string
		tile    int
	}{{"levenshtein", 256}, {"dtw", 181}} {
		inst, err := BuildInstance(tc.problem, 400, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := solve(t, inst, lddp.WithStrategy(lddp.Sequential)).Answer
		out := solve(t, inst, lddp.WithStrategy(lddp.Parallel))
		if out.Tile != tc.tile {
			t.Errorf("%s: default tile %d, want %d", tc.problem, out.Tile, tc.tile)
		}
		if out.Answer != want {
			t.Errorf("%s: tiled %q != seq %q", tc.problem, out.Answer, want)
		}
	}
}

func TestSolveMultiHorizontalProblem(t *testing.T) {
	inst, err := BuildInstance("checkerboard", 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := solve(t, inst, lddp.WithStrategy(lddp.Sequential)).Answer
	out := solve(t, inst, lddp.WithStrategy(lddp.Multi), lddp.WithAccelerators("k20", "phi"))
	if out.Answer != want {
		t.Errorf("multi %q != seq %q", out.Answer, want)
	}
	if _, err := inst.Solve(context.Background(), lddp.WithStrategy(lddp.Multi), lddp.WithAccelerators("warp9")); err == nil {
		t.Error("unknown accelerator should error")
	}
}
