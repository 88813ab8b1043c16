package lddp_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
	"repro/lddp"
)

// testProblem mixes every contributing neighbour with a positional term so
// any mis-scheduled read changes the output.
func testProblem(m lddp.DepMask, rows, cols int) *lddp.Problem[int64] {
	return &lddp.Problem[int64]{
		Name: "facade-" + m.String(),
		Rows: rows,
		Cols: cols,
		Deps: m,
		F: func(i, j int, nb lddp.Neighbors[int64]) int64 {
			v := int64(i*31+j*17) % 13
			if m.Has(lddp.DepW) {
				v += 2*nb.W + 1
			}
			if m.Has(lddp.DepNW) {
				v += 3 * nb.NW
			}
			if m.Has(lddp.DepN) {
				v += max(nb.N, v)
			}
			if m.Has(lddp.DepNE) {
				v += nb.NE ^ 5
			}
			return v % 1_000_003
		},
		Boundary:     func(i, j int) int64 { return int64(i + 2*j) },
		BytesPerCell: 8,
	}
}

// TestStrategyTableRoundTrip: every row of the strategy table sits at its
// own index, and its name round-trips through String and ParseStrategy.
func TestStrategyTableRoundTrip(t *testing.T) {
	for i, row := range lddp.Strategies() {
		if int(row.Strategy) != i {
			t.Errorf("row %d holds strategy %d", i, int(row.Strategy))
		}
		if row.Strategy.String() != row.Name {
			t.Errorf("%d.String() = %q, want %q", i, row.Strategy.String(), row.Name)
		}
		if got, err := lddp.ParseStrategy(row.Name); err != nil || got != row.Strategy {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", row.Name, got, err, row.Strategy)
		}
		if row.Strategy.Info() != row {
			t.Errorf("%s.Info() = %+v, want %+v", row.Name, row.Strategy.Info(), row)
		}
	}
	for _, name := range []string{"", "seq", "Parallel", "tiled"} {
		if _, err := lddp.ParseStrategy(name); err == nil {
			t.Errorf("ParseStrategy(%q) accepted", name)
		}
	}
}

// TestAcceleratorByName resolves every accelerator WithAccelerators
// accepts and refuses an unknown one.
func TestAcceleratorByName(t *testing.T) {
	for _, n := range []string{"k20", "gt650m", "phi"} {
		a, err := lddp.AcceleratorByName(n)
		if err != nil || a.Name != n {
			t.Errorf("AcceleratorByName(%s) = %v, %v", n, a, err)
		}
	}
	if _, err := lddp.AcceleratorByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

// TestSolveMatchesReferenceAllMasksAllStrategies checks lddp.Solve
// reproduces the sequential reference for every one of the 15 contributing
// sets on every grid-producing row of the strategy table (Multi needs
// accelerators and a horizontal pattern; TestSolveMultiStrategy covers
// it).
func TestSolveMatchesReferenceAllMasksAllStrategies(t *testing.T) {
	ctx := context.Background()
	for _, m := range core.AllDepMasks() {
		p := testProblem(m, 48, 37)
		want, err := core.Solve(p)
		if err != nil {
			t.Fatalf("mask %s: reference solve: %v", m, err)
		}
		for _, row := range lddp.Strategies() {
			s := row.Strategy
			if s == lddp.Multi {
				continue
			}
			res, err := lddp.Solve(ctx, p, lddp.WithStrategy(s), lddp.WithWorkers(3))
			if err != nil {
				t.Fatalf("mask %s strategy %s: %v", m, s, err)
			}
			if res.Grid == nil {
				t.Fatalf("mask %s strategy %s: nil grid", m, s)
			}
			if !table.EqualComparable(want, res.Grid) {
				t.Errorf("mask %s strategy %s: grid differs from reference", m, s)
			}
			if res.Pattern != core.Classify(m) {
				t.Errorf("mask %s strategy %s: Pattern = %s, want %s", m, s, res.Pattern, core.Classify(m))
			}
		}
	}
}

// TestSolveMultiStrategy exercises the multi-accelerator path through the
// facade on a horizontal-pattern problem.
func TestSolveMultiStrategy(t *testing.T) {
	p := testProblem(lddp.DepNW|lddp.DepN, 48, 64)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lddp.Solve(context.Background(), p,
		lddp.WithStrategy(lddp.Multi),
		lddp.WithAccelerators("k20", "gt650m"))
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, res.Grid) {
		t.Error("multi grid differs from reference")
	}
	if len(res.Shares) != 3 {
		t.Errorf("Shares = %v, want 3 device spans", res.Shares)
	}
	if res.SimTime <= 0 {
		t.Errorf("SimTime = %v, want > 0", res.SimTime)
	}
}

// TestSolveOptionErrors checks option failures surface before any work.
func TestSolveOptionErrors(t *testing.T) {
	p := testProblem(lddp.DepN, 8, 8)
	ctx := context.Background()
	if _, err := lddp.Solve(ctx, p, lddp.WithPlatform("Hetero-Imaginary")); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := lddp.Solve(ctx, p, lddp.WithAccelerators("warp9")); err == nil {
		t.Error("unknown accelerator accepted")
	}
	if _, err := lddp.Solve(ctx, p, lddp.WithStrategy(lddp.Multi)); err == nil {
		t.Error("Multi without accelerators accepted")
	}
	if _, err := lddp.Solve(ctx, p, lddp.WithStrategy(lddp.Strategy(99))); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestSolveCancellation checks the facade propagates *Canceled from every
// strategy.
func TestSolveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := testProblem(lddp.DepW|lddp.DepNW|lddp.DepN, 64, 64)
	for _, s := range []lddp.Strategy{
		lddp.Sequential, lddp.Parallel, lddp.Hetero, lddp.SimCPU, lddp.SimGPU, lddp.Async,
	} {
		_, err := lddp.Solve(ctx, p, lddp.WithStrategy(s))
		var c *lddp.Canceled
		if !errors.As(err, &c) {
			t.Errorf("strategy %s: error %v is not *Canceled", s, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("strategy %s: error %v does not unwrap to context.Canceled", s, err)
		}
	}
}

// TestMetricsCountersMatchKnownTotals solves a horizontal-pattern problem
// with a fixed split and checks the collector's counters against the
// analytically known front and transfer totals.
func TestMetricsCountersMatchKnownTotals(t *testing.T) {
	const rows, cols, tShare = 32, 64, 16
	p := testProblem(lddp.DepNW|lddp.DepN|lddp.DepNE, rows, cols) // two-way horizontal
	metrics := &lddp.Metrics{}
	res, err := lddp.Solve(context.Background(), p,
		lddp.WithStrategy(lddp.Hetero),
		lddp.WithTSwitch(0), lddp.WithTShare(tShare),
		lddp.WithCollector(metrics))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != lddp.Horizontal {
		t.Fatalf("executed %s, want Horizontal", res.Executed)
	}
	snap := metrics.Snapshot()

	// Every row is one front of cols cells.
	if snap.TotalFronts != rows {
		t.Errorf("TotalFronts = %d, want %d", snap.TotalFronts, rows)
	}
	if snap.TotalCells != rows*cols {
		t.Errorf("TotalCells = %d, want %d", snap.TotalCells, rows*cols)
	}
	if snap.Fronts != rows {
		t.Errorf("Fronts = %d, want %d", snap.Fronts, rows)
	}

	// The horizontal strategy is single-phase (Table II row "horizontal"):
	// exactly one compute phase label ("p1").
	if len(snap.Phases) != 1 {
		t.Errorf("phases = %+v, want exactly one", snap.Phases)
	}

	// Two-way boundary exchange: one H2D and one D2H cell per row.
	tr := snap.Transfers
	if tr.BoundaryH2D.Count != rows || tr.BoundaryH2D.Cells != rows {
		t.Errorf("BoundaryH2D = %+v, want %d single-cell transfers", tr.BoundaryH2D, rows)
	}
	if tr.BoundaryD2H.Count != rows || tr.BoundaryD2H.Cells != rows {
		t.Errorf("BoundaryD2H = %+v, want %d single-cell transfers", tr.BoundaryD2H, rows)
	}
	if wantBytes := int64(rows * 8); tr.BoundaryH2D.Bytes != wantBytes || tr.BoundaryD2H.Bytes != wantBytes {
		t.Errorf("boundary bytes h2d=%d d2h=%d, want %d each", tr.BoundaryH2D.Bytes, tr.BoundaryD2H.Bytes, wantBytes)
	}
	// One bulk result extraction of the GPU's final-row share; no input
	// upload (InputBytes is zero).
	if tr.BulkH2D.Count != 0 {
		t.Errorf("BulkH2D = %+v, want none", tr.BulkH2D)
	}
	if wantBytes := int64((cols - tShare) * 8); tr.BulkD2H.Count != 1 || tr.BulkD2H.Bytes != wantBytes {
		t.Errorf("BulkD2H = %+v, want one transfer of %d bytes", tr.BulkD2H, wantBytes)
	}

	if snap.Solves != 1 || snap.Errors != 0 {
		t.Errorf("Solves/Errors = %d/%d, want 1/0", snap.Solves, snap.Errors)
	}
}

// TestMetricsPhaseCountsMatchTableII checks the phase structure the
// collector reports matches the paper's Table-II strategies: three phases
// for anti-diagonal and knight-move, one for horizontal.
func TestMetricsPhaseCountsMatchTableII(t *testing.T) {
	cases := []struct {
		name   string
		mask   lddp.DepMask
		phases int
		opts   []lddp.Option
	}{
		{"anti-diagonal", lddp.DepW | lddp.DepN, 3, nil},
		{"horizontal", lddp.DepNW | lddp.DepN, 1, nil},
		{"knight-move", lddp.DepW | lddp.DepNE, 3, nil},
		{"inverted-l", lddp.DepNW, 2, []lddp.Option{lddp.WithPreferInvertedL()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			metrics := &lddp.Metrics{}
			opts := append([]lddp.Option{
				lddp.WithStrategy(lddp.Hetero),
				lddp.WithTSwitch(8), lddp.WithTShare(4),
				lddp.WithCollector(metrics),
			}, tc.opts...)
			if _, err := lddp.Solve(context.Background(), testProblem(tc.mask, 64, 64), opts...); err != nil {
				t.Fatal(err)
			}
			snap := metrics.Snapshot()
			if len(snap.Phases) != tc.phases {
				names := make([]string, 0, len(snap.Phases))
				for _, ph := range snap.Phases {
					names = append(names, ph.Name)
				}
				t.Errorf("phases %v, want %d", names, tc.phases)
			}
		})
	}
}

// TestMetricsWorkerStats checks the tile engine reports one entry per
// worker and that tile/cell counts add up.
func TestMetricsWorkerStats(t *testing.T) {
	const rows, cols, workers = 128, 128, 4
	metrics := &lddp.Metrics{}
	_, err := lddp.Solve(context.Background(), testProblem(lddp.DepW|lddp.DepN, rows, cols),
		lddp.WithWorkers(workers), lddp.WithTile(32), lddp.WithCollector(metrics))
	if err != nil {
		t.Fatal(err)
	}
	snap := metrics.Snapshot()
	if len(snap.Workers) != workers {
		t.Fatalf("worker stats for %d workers, want %d", len(snap.Workers), workers)
	}
	var cells int64
	for _, w := range snap.Workers {
		cells += w.Cells
		if w.Utilization < 0 || w.Utilization > 1 {
			t.Errorf("worker %d utilization %f out of [0,1]", w.Worker, w.Utilization)
		}
	}
	// Every tile is filled by exactly one worker.
	if cells != rows*cols {
		t.Errorf("workers computed %d cells, want %d", cells, rows*cols)
	}
}

// TestMetricsJSONRoundTrip checks the snapshot marshals to JSON with the
// documented field names.
func TestMetricsJSONRoundTrip(t *testing.T) {
	metrics := &lddp.Metrics{}
	if _, err := lddp.Solve(context.Background(), testProblem(lddp.DepW|lddp.DepN, 32, 32),
		lddp.WithStrategy(lddp.Hetero), lddp.WithCollector(metrics)); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"solver", "phases", "front_sizes", "worker_stats", "transfers", "fronts"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("marshaled metrics missing %q: %s", key, data)
		}
	}
}
