package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/table"
	"repro/internal/trace"
)

// asyncSink records the full Collector stream of one async solve.
type asyncSink struct {
	starts  []SolveInfo
	workers []WorkerStats
	phases  []string
	ends    []error
}

func (s *asyncSink) SolveStart(info SolveInfo)          { s.starts = append(s.starts, info) }
func (s *asyncSink) FrontSize(int)                      {}
func (s *asyncSink) WorkerStats(ws WorkerStats)         { s.workers = append(s.workers, ws) }
func (s *asyncSink) Transfer(TransferStats)             {}
func (s *asyncSink) Phase(name string, _ time.Duration) { s.phases = append(s.phases, name) }
func (s *asyncSink) SolveEnd(err error)                 { s.ends = append(s.ends, err) }

// TestAsyncExpiredContext checks the async entry point returns promptly
// with a *Canceled when handed an already-expired context.
func TestAsyncExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := SolveAsyncContext(ctx, testProblem(DepW|DepN, 64, 64), Options{NativeWorkers: 4})
	c := wantCanceled(t, err, nil)
	if g != nil {
		t.Error("canceled solve returned a non-nil grid")
	}
	if c.Solver != "async" {
		t.Errorf("Canceled.Solver = %q, want async", c.Solver)
	}
}

// TestMidSolveCancelAsync cancels from inside the recurrence and checks
// the async workers abort mid-table with a row-based Front.
func TestMidSolveCancelAsync(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var cells atomic.Int64
	p := testProblem(DepW|DepNW|DepN, 256, 256)
	inner := p.F
	p.F = func(i, j int, nb Neighbors[int64]) int64 {
		if cells.Add(1) == 1000 {
			cancel()
		}
		return inner(i, j, nb)
	}
	g, err := SolveAsyncContext(ctx, p, Options{NativeWorkers: 4})
	c := wantCanceled(t, err, nil)
	if g != nil {
		t.Error("canceled solve returned a non-nil grid")
	}
	if c.Solver != "async" {
		t.Errorf("Canceled.Solver = %q, want async", c.Solver)
	}
	if c.Front < 0 || c.Front > 256 {
		t.Errorf("Canceled.Front = %d, want a row index in [0, 256]", c.Front)
	}
	if total := cells.Load(); total >= 256*256 {
		t.Errorf("solve computed all %d cells despite cancellation", total)
	}
}

// TestAsyncCanceledSolvesLeakNoGoroutines runs repeated mid-solve
// cancellations and checks the goroutine count returns to baseline: a
// worker parked on the ready queue must observe the cancel and exit.
func TestAsyncCanceledSolvesLeakNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		var cells atomic.Int64
		p := testProblem(DepW|DepNW|DepN|DepNE, 128, 400)
		inner := p.F
		p.F = func(i, j int, nb Neighbors[int64]) int64 {
			if cells.Add(1) == int64(100*(iter+1)) {
				cancel()
			}
			return inner(i, j, nb)
		}
		if _, err := SolveAsyncContext(ctx, p, Options{NativeWorkers: 4}); err == nil {
			t.Fatalf("iter %d: expected cancellation error", iter)
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after canceled solves", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsyncCollectorEvents checks the Collector wiring: one SolveStart
// naming the async entry point, per-worker stats whose cells sum to the
// table, the native phase, and a nil SolveEnd. The table spans 3x3
// default tiles, so all 4 workers run.
func TestAsyncCollectorEvents(t *testing.T) {
	sink := &asyncSink{}
	p := testProblem(DepW|DepN, 400, 383)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveAsyncOpt(p, Options{NativeWorkers: 4, Collector: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Fatal("collected solve computed a different table")
	}
	if len(sink.starts) != 1 {
		t.Fatalf("SolveStart count = %d, want 1", len(sink.starts))
	}
	info := sink.starts[0]
	if info.Solver != "async" || info.Executed != AntiDiagonal.String() || info.Workers != 4 {
		t.Errorf("SolveInfo = %+v, want solver async, executed %s, 4 workers", info, AntiDiagonal)
	}
	if len(sink.workers) != 4 {
		t.Fatalf("WorkerStats count = %d, want 4", len(sink.workers))
	}
	cells := 0
	for _, ws := range sink.workers {
		cells += ws.Cells
	}
	if cells != 400*383 {
		t.Errorf("worker cells sum to %d, want %d", cells, 400*383)
	}
	if len(sink.phases) != 1 || sink.phases[0] != "native" {
		t.Errorf("phases = %v, want [native]", sink.phases)
	}
	if len(sink.ends) != 1 || sink.ends[0] != nil {
		t.Errorf("SolveEnd = %v, want one nil", sink.ends)
	}
}

// TestAsyncTraceEvents checks the Recorder wiring: KindTask tile spans
// account for every cell exactly once, KindReady queue-depth samples
// appear, and — the point of the engine — not a single barrier or front
// event.
func TestAsyncTraceEvents(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN, 512, 512)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 14)
	got, err := SolveAsyncOpt(p, Options{NativeWorkers: 4, Tracer: rec})
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
	kinds := traceKinds(evs)
	if kinds[trace.KindBarrier] != 0 || kinds[trace.KindFront] != 0 {
		t.Errorf("async trace kinds = %v, want zero barrier and front events", kinds)
	}
	if kinds[trace.KindTask] == 0 {
		t.Errorf("async trace kinds = %v, want task spans", kinds)
	}
	if kinds[trace.KindReady] == 0 {
		t.Errorf("async trace kinds = %v, want ready-queue samples on a %d-cell solve", kinds, 512*512)
	}
	var cells int64
	for _, e := range evs {
		if e.Kind == trace.KindTask {
			cells += e.B - e.A
		}
	}
	if cells != 512*512 {
		t.Errorf("task spans cover %d cells, want %d", cells, 512*512)
	}
	if meta := rec.Meta(); meta.Solver != "async" || meta.Workers != 4 {
		t.Errorf("meta = %+v, want async solver with 4 workers", meta)
	}
	rep := trace.Analyze(rec.Meta(), evs, 0)
	if rep.Stall.BarrierNS != 0 {
		t.Errorf("analyzer reports %dns barrier stall on an async trace", rep.Stall.BarrierNS)
	}
	if rep.Queue.Samples == 0 {
		t.Error("analyzer folded no ready-queue samples")
	}
}

// TestAsyncWorkloadRunsOnForeignWorkers drives NewAsyncWorkload the way
// the scheduler does — engine loops claimed unit by unit by goroutines
// the engine does not own — and checks the assembled grid, plus that
// loops claimed after completion return immediately. The {W,NW,N,NE}
// mask runs on skewed tiles, 2x4 of them at this shape, so all 4 loops
// have tiles to share.
func TestAsyncWorkloadRunsOnForeignWorkers(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN|DepNE, 256, 397)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	wl, finish, err := NewAsyncWorkload(context.Background(), p, Options{NativeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Fronts != 1 || wl.Size(0) != 4 {
		t.Fatalf("workload shape fronts=%d size=%d, want 1 front of 4 units", wl.Fronts, wl.Size(0))
	}
	if !strings.Contains(wl.Info.Solver, "async") {
		t.Errorf("workload solver = %q, want an async name", wl.Info.Solver)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wl.Run(0, w, w+1)
		}(w)
	}
	wg.Wait()
	// A straggler claim after completion must be a no-op, not a hang.
	done := make(chan struct{})
	go func() {
		wl.Run(0, 0, 4)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-completion Run did not return")
	}
	if got := finish(); !table.EqualComparable(want, got) {
		t.Error("workload grid differs from sequential oracle")
	}
}

// TestAsyncWorkloadCancelUnblocksLoops cancels the workload's context
// mid-solve and checks every claimed loop returns, including loops
// parked on the ready queue.
func TestAsyncWorkloadCancelUnblocksLoops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cells atomic.Int64
	p := testProblem(DepW|DepNW|DepN, 512, 512)
	inner := p.F
	p.F = func(i, j int, nb Neighbors[int64]) int64 {
		if cells.Add(1) == 2000 {
			cancel()
		}
		return inner(i, j, nb)
	}
	wl, _, err := NewAsyncWorkload(ctx, p, Options{NativeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wl.Run(0, w, w+1)
			}(w)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled workload loops did not return")
	}
	if total := cells.Load(); total >= 512*512 {
		t.Errorf("workload computed all %d cells despite cancellation", total)
	}
}

// TestTiledRejectsOversizedTileGrid pins the engine's int32 tile-index
// ceiling: a tile grid past it must be refused, with a clear error,
// before the grid is allocated.
func TestTiledRejectsOversizedTileGrid(t *testing.T) {
	p := testProblem(DepW|DepN, 1, 1)
	p.Rows, p.Cols = 1<<16, 1<<16 // 2^32 one-cell tiles
	_, err := SolveTiledContext(context.Background(), p, 1, Options{NativeWorkers: 2})
	if err == nil {
		t.Fatal("expected an error for a 2^32-tile grid")
	}
	if !strings.Contains(err.Error(), "exceed the engine's int32 tile index") {
		t.Errorf("error = %v, want the documented tile-index ceiling", err)
	}
}
