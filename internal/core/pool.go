package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/table"
	"repro/internal/trace"
)

// Persistent worker-pool wavefront runtime.
//
// The seed native executor spawned fresh goroutines and took a full
// sync.WaitGroup barrier on every wavefront: for an 8k x 8k anti-diagonal
// problem that is ~16k spawn/barrier cycles, exactly the dispatch-overhead
// regime the paper's t_switch analysis warns about on the GPU side. This
// file replaces it with a pool that is started once per solve:
//
//   - workers pull chunks off the current front through an atomic cursor
//     (dynamic chunking), so ragged fronts from the Inverted-L and
//     Knight-Move patterns balance automatically;
//   - fronts are separated by a reusable epoch barrier — the last worker
//     to arrive advances the front state and releases the others by
//     closing a gate channel (channel close gives the happens-before edge
//     that publishes the new front state);
//   - runs of fronts at or below one chunk are executed inline by the
//     advancing worker without waking anyone: the low-work triangles at
//     the start and end of grow-shrink patterns degenerate to pure serial
//     execution with zero synchronization, the native analogue of the
//     paper's t_switch low-work regions;
//   - Horizontal-pattern problems (constant-width fronts, no W
//     dependency) can skip the global barrier entirely: each worker owns
//     a column band and hands an epoch token to its neighbours after each
//     row, so synchronization is O(1) point-to-point waits per row — the
//     native analogue of the paper's pipelined one-way transfers
//     (runBands).
//
// Cancellation: the runtime polls the context's done channel at chunk
// granularity (a non-blocking receive per cursor bump, skipped entirely for
// uncancellable contexts). A worker that observes cancellation stops
// claiming chunks and arrives at the barrier as usual; the last arriver
// sees the flag, closes the gate with the stop bit set, and every worker
// exits promptly — the barrier protocol itself is the shutdown path, so no
// goroutine can be left parked. The interrupted solve returns *Canceled.
//
// Instrumentation: with a non-nil Collector the pool counts chunk claims,
// cells, and kernel time per worker (accumulated in worker-local state and
// reported once after the join). With a nil Collector the only residue is
// one nil test per chunk claim.

// defaultNativeChunk is the number of cells a worker claims per cursor
// bump. It doubles as the serial cutoff: fronts that fit in one chunk run
// inline on the advancing worker.
const defaultNativeChunk = 512

// defaultPoolWorkers resolves the pool worker count: the native runtime is
// compute-bound, so the default is capped at the physical core count —
// workers beyond the hardware only lengthen the per-front barrier (every
// extra worker is one more scheduler round-trip per epoch with zero added
// throughput). This is the documented Options.NativeWorkers default:
// min(GOMAXPROCS, NumCPU).
func defaultPoolWorkers() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// poolWorkerStat is one worker's instrumentation state, local to the worker
// during the solve (no sharing, no atomics) and reported after the join.
type poolWorkerStat struct {
	chunks int
	cells  int
	busy   time.Duration
}

// workerPool is the reusable barrier state shared by the pool workers.
// Front-describing fields (front, size, frontT0) are written only by the
// advancing worker between epochs and published to the others by the gate
// close.
type workerPool struct {
	workers int
	chunk   int64
	fronts  int
	sizeOf  func(t int) int
	run     func(t, lo, hi int)

	done  <-chan struct{}  // context done channel; nil = uncancellable
	stats []poolWorkerStat // per-worker instrumentation; nil = collector off
	lanes []*trace.Lane    // per-worker trace lanes; nil = tracer off

	front   int       // current front index
	size    int64     // current front size
	frontT0 time.Time // when the current front opened (tracer on only)

	cursor    atomic.Int64  // next unclaimed cell of the current front
	remaining atomic.Int64  // workers still computing the current front
	canceled  atomic.Bool   // set by any worker that observes ctx done
	gate      chan struct{} // closed to release parked workers into the next epoch
	stop      bool          // set by the advancer before the final gate close
}

// poolConfig bundles the cross-cutting knobs of the pool runtime: the
// executor name (error messages, pprof labels), worker/chunk sizing, and
// the two observability sinks. The zero values of workers and chunk select
// the documented defaults.
type poolConfig struct {
	solver  string
	phase   string // pprof label: executed pattern / "blocks" / "planes"
	workers int
	chunk   int
	coll    Collector
	rec     *trace.Recorder
}

// poolLabels builds the pprof label set attached to every pool goroutine,
// so CPU profiles segment by solver, wavefront phase, and worker.
func (cfg *poolConfig) poolLabels(w int) pprof.LabelSet {
	return pprof.Labels(
		"lddp_solver", cfg.solver,
		"lddp_phase", cfg.phase,
		"lddp_worker", strconv.Itoa(w),
	)
}

// runWavefronts executes fronts [0, fronts) of a wavefront space on a
// persistent pool: size(t) is the cell count of front t and run(t, lo, hi)
// computes its cells [lo, hi). run must be safe for concurrent calls on
// disjoint ranges of one front. cfg.workers <= 1 degenerates to a serial
// sweep with no goroutines; cfg.chunk <= 0 selects defaultNativeChunk;
// cfg.workers <= 0 selects the documented default min(GOMAXPROCS, NumCPU).
//
// On cancellation runWavefronts returns *Canceled (solver names the
// interrupted executor in the error); the computed prefix of the table is
// left in place but the caller must treat the solve as failed.
func runWavefronts(ctx context.Context, cfg poolConfig, fronts int, size func(t int) int, run func(t, lo, hi int)) error {
	if fronts <= 0 {
		return nil
	}
	chunk := cfg.chunk
	if chunk <= 0 {
		chunk = defaultNativeChunk
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	done := ctxDone(ctx)
	var lane0 *trace.Lane
	if cfg.rec != nil {
		lane0 = cfg.rec.Lane(0)
	}
	// A front is worth parallelizing only when it exceeds one chunk, so a
	// problem whose widest front fits in a chunk never starts a worker.
	t := 0
	for ; t < fronts; t++ {
		if isDone(done) {
			return canceledErr(ctx, cfg.solver, t)
		}
		s := size(t)
		if workers > 1 && s > chunk {
			break
		}
		if lane0 == nil {
			run(t, 0, s)
		} else {
			t0 := time.Now()
			run(t, 0, s)
			lane0.SpanFrom(trace.KindInline, t, 0, int64(s), t0)
		}
	}
	if t == fronts {
		return nil
	}

	p := &workerPool{
		workers: workers,
		chunk:   int64(chunk),
		fronts:  fronts,
		sizeOf:  size,
		run:     run,
		done:    done,
		front:   t,
		size:    int64(size(t)),
		gate:    make(chan struct{}),
	}
	if cfg.coll != nil {
		p.stats = make([]poolWorkerStat, workers)
	}
	if cfg.rec != nil {
		p.lanes = make([]*trace.Lane, workers)
		for w := range p.lanes {
			p.lanes[w] = cfg.rec.Lane(w)
		}
		p.frontT0 = time.Now()
	}
	p.remaining.Store(int64(workers))

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func(w int) {
			defer wg.Done()
			pprof.Do(ctx, cfg.poolLabels(w), func(context.Context) { p.work(w) })
		}(i)
	}
	// The caller participates as worker 0 (labels restored by pprof.Do).
	pprof.Do(ctx, cfg.poolLabels(0), func(context.Context) { p.work(0) })
	wg.Wait()

	if cfg.coll != nil {
		wall := time.Since(start)
		for w := range p.stats {
			st := &p.stats[w]
			cfg.coll.WorkerStats(WorkerStats{
				Worker: w, Chunks: st.chunks, Cells: st.cells,
				Busy: st.busy, Wall: wall,
			})
		}
	}
	if p.canceled.Load() {
		return canceledErr(ctx, cfg.solver, p.front)
	}
	return nil
}

// work is the pool worker loop: claim chunks, arrive at the barrier, and
// either advance the epoch (last arriver) or park on the gate.
func (p *workerPool) work(w int) {
	var st *poolWorkerStat
	if p.stats != nil {
		st = &p.stats[w]
	}
	var ln *trace.Lane
	if p.lanes != nil {
		ln = p.lanes[w]
	}
	runSpan := func(kind trace.Kind, t, lo, hi int) {
		if st == nil && ln == nil {
			p.run(t, lo, hi)
			return
		}
		t0 := time.Now()
		p.run(t, lo, hi)
		if st != nil {
			st.busy += time.Since(t0)
			st.chunks++
			st.cells += hi - lo
		}
		if ln != nil {
			ln.SpanFrom(kind, t, int64(lo), int64(hi), t0)
		}
	}
	for {
		// Claim chunks of the current front until the cursor runs past its
		// size. Add returns the cursor after the bump, so lo is the start
		// of the span this worker just claimed. A canceled worker stops
		// claiming and falls through to the barrier — the shutdown rides
		// the normal epoch protocol.
		size := p.size
		for !p.canceled.Load() {
			if isDone(p.done) {
				p.canceled.Store(true)
				break
			}
			lo := p.cursor.Add(p.chunk) - p.chunk
			if lo >= size {
				break
			}
			hi := lo + p.chunk
			if hi > size {
				hi = size
			}
			runSpan(trace.KindChunk, p.front, int(lo), int(hi))
		}

		// Capture the gate and the front before announcing arrival: once
		// remaining hits zero the advancer may swap p.gate for the next
		// epoch, and a worker that loaded the new gate would park for a
		// close that already happened (likewise p.front for the barrier
		// span's front attribution).
		gate := p.gate
		arrivedFront := p.front
		var barrierT0 time.Time
		if ln != nil {
			barrierT0 = time.Now()
		}
		if p.remaining.Add(-1) > 0 {
			<-gate
			if ln != nil {
				ln.SpanFrom(trace.KindBarrier, arrivedFront, 0, 0, barrierT0)
			}
			if p.stop {
				return
			}
			continue
		}

		// Last arriver: advance. A pending cancellation terminates the pool
		// here, with every other worker parked and p.front recording the
		// first front not known to be fully computed. Otherwise fronts at
		// or below one chunk are executed inline — the others are parked,
		// so no synchronization is needed — until a front wide enough to
		// share shows up.
		if p.canceled.Load() {
			p.stop = true
			close(gate)
			return
		}
		if ln != nil {
			// The completed front's wall span, from gate open to last
			// arrival.
			ln.SpanFrom(trace.KindFront, arrivedFront, int64(size), 0, p.frontT0)
		}
		t := p.front + 1
		for ; t < p.fronts; t++ {
			if isDone(p.done) {
				p.canceled.Store(true)
				p.front = t
				p.stop = true
				close(gate)
				return
			}
			s := p.sizeOf(t)
			if s > int(p.chunk) {
				break
			}
			runSpan(trace.KindInline, t, 0, s)
		}
		if t == p.fronts {
			p.stop = true
			close(gate)
			return
		}
		p.front = t
		p.size = int64(p.sizeOf(t))
		if ln != nil {
			p.frontT0 = time.Now()
		}
		p.cursor.Store(0)
		p.remaining.Store(int64(p.workers))
		p.gate = make(chan struct{})
		close(gate) // publishes every write above to the woken workers
	}
}

// runBands executes a Horizontal-pattern space (rows fronts of constant
// width cols) without any global barrier: worker w owns the column band
// [bandStart(w), bandStart(w+1)) and sweeps it top to bottom, synchronizing
// only with its immediate neighbours. After finishing a row, a worker
// deposits a token for its right neighbour (when needLeft: the neighbour's
// NW reads cross the shared boundary) and its left neighbour (when
// needRight: NE reads); before starting row t > 0 it consumes one token
// from each side it depends on, which guarantees the neighbour has finished
// row t-1. Token channels are buffered to rows so producers never block;
// channel communication provides the happens-before edges for the boundary
// cells. With neither flag set ({N}-only problems) workers run completely
// independently.
//
// Cancellation: every token wait also selects on the context's done
// channel, and each worker polls it once per row, so a canceled solve
// unwinds without any worker blocking on a token its neighbour will never
// send. The lowest unfinished row across the workers is reported as
// Canceled.Front.
func runBands(ctx context.Context, cfg poolConfig, rows, cols int, needLeft, needRight bool, run func(t, lo, hi int)) error {
	workers := cfg.workers
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	if workers > cols {
		workers = cols
	}
	done := ctxDone(ctx)
	if workers <= 1 {
		for t := 0; t < rows; t++ {
			if isDone(done) {
				return canceledErr(ctx, "bands", t)
			}
			run(t, 0, cols)
		}
		return nil
	}
	lanes := make([]*trace.Lane, workers)
	if cfg.rec != nil {
		for w := range lanes {
			lanes[w] = cfg.rec.Lane(w)
		}
	}
	// fromLeft[w] carries tokens from worker w-1 to w; fromRight[w] from
	// w+1 to w. Only the channels a worker will consume are allocated.
	fromLeft := make([]chan struct{}, workers)
	fromRight := make([]chan struct{}, workers)
	for w := 1; w < workers; w++ {
		if needLeft {
			fromLeft[w] = make(chan struct{}, rows)
		}
		if needRight {
			fromRight[w-1] = make(chan struct{}, rows)
		}
	}
	bandStart := func(w int) int { return w * cols / workers }

	// lowRow tracks min(first unfinished row) across canceled workers.
	var lowRow atomic.Int64
	lowRow.Store(int64(rows))

	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			pprof.Do(ctx, cfg.poolLabels(w), func(context.Context) {
				bandWork(w, workers, rows, bandStart(w), bandStart(w+1), needLeft, needRight, fromLeft, fromRight, done, &lowRow, lanes[w], run)
			})
		}(w)
	}
	pprof.Do(ctx, cfg.poolLabels(0), func(context.Context) {
		bandWork(0, workers, rows, bandStart(0), bandStart(1), needLeft, needRight, fromLeft, fromRight, done, &lowRow, lanes[0], run)
	})
	wg.Wait()

	if low := lowRow.Load(); low < int64(rows) {
		return canceledErr(ctx, "bands", int(low))
	}
	return nil
}

// bandWork sweeps one worker's column band down all rows, exchanging epoch
// tokens with its neighbours. On cancellation it records its first
// unfinished row into lowRow and returns. A non-nil lane records one
// KindRow span per row plus KindHandoff spans for the token waits.
func bandWork(w, workers, rows, lo, hi int, needLeft, needRight bool, fromLeft, fromRight []chan struct{}, done <-chan struct{}, lowRow *atomic.Int64, ln *trace.Lane, run func(t, lo, hi int)) {
	waitLeft := needLeft && w > 0
	waitRight := needRight && w < workers-1
	sendRight := needLeft && w < workers-1
	sendLeft := needRight && w > 0
	abort := func(t int) {
		// CAS-min: remember the lowest unfinished row across all workers.
		for {
			cur := lowRow.Load()
			if int64(t) >= cur || lowRow.CompareAndSwap(cur, int64(t)) {
				return
			}
		}
	}
	for t := 0; t < rows; t++ {
		if isDone(done) {
			abort(t)
			return
		}
		if t > 0 {
			// One token per row: t tokens consumed means the neighbour has
			// finished rows [0, t), covering every NW/NE read of row t.
			if waitLeft {
				var t0 time.Time
				if ln != nil {
					t0 = time.Now()
				}
				select {
				case <-fromLeft[w]:
				case <-done:
					abort(t)
					return
				}
				if ln != nil {
					ln.SpanFrom(trace.KindHandoff, t, 0, 0, t0)
				}
			}
			if waitRight {
				var t0 time.Time
				if ln != nil {
					t0 = time.Now()
				}
				select {
				case <-fromRight[w]:
				case <-done:
					abort(t)
					return
				}
				if ln != nil {
					ln.SpanFrom(trace.KindHandoff, t, 1, 0, t0)
				}
			}
		}
		if ln == nil {
			run(t, lo, hi)
		} else {
			t0 := time.Now()
			run(t, lo, hi)
			ln.SpanFrom(trace.KindRow, t, int64(lo), int64(hi), t0)
		}
		if sendRight {
			fromLeft[w+1] <- struct{}{}
		}
		if sendLeft {
			fromRight[w-1] <- struct{}{}
		}
	}
}

// solveParallelPool is the pool-backed native solve behind
// SolveParallelContext and SolveParallelOpt: canonicalize, build the flat kernel, and drive it
// with the band runtime (Horizontal, unless disabled) or the barrier pool.
func solveParallelPool[T any](ctx context.Context, p *Problem[T], opts Options) (grid *table.Grid[T], err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	workers := opts.NativeWorkers
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	cp, canonical, _, undo := canonicalize(p)
	w := NewWavefronts(canonical, cp.Rows, cp.Cols)
	g := table.NewGrid[T](cp.Rows, cp.Cols, nil)

	coll := opts.Collector
	useBands := canonical == Horizontal && !opts.NativeNoLookahead && workers > 1
	solver := "pool"
	if useBands {
		solver = "bands"
	} else if workers == 1 {
		solver = "sequential"
	}
	var start time.Time
	if coll != nil {
		coll.SolveStart(SolveInfo{
			Solver: solver, Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: canonical.String(),
			Rows: cp.Rows, Cols: cp.Cols, Fronts: w.Fronts, Workers: workers,
		})
		for t := 0; t < w.Fronts; t++ {
			coll.FrontSize(w.Size(t))
		}
		start = time.Now()
		defer func() {
			coll.Phase("native", time.Since(start))
			coll.SolveEnd(err)
		}()
	}
	tr := opts.Tracer
	if tr != nil {
		tr.BeginSolve(trace.Meta{
			Solver: solver, Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: canonical.String(),
			Rows: cp.Rows, Cols: cp.Cols, Fronts: w.Fronts, Workers: workers,
		})
		defer tr.EndSolve()
	}
	cfg := poolConfig{
		solver: solver, phase: canonical.String(),
		workers: workers, chunk: opts.NativeChunk,
		coll: coll, rec: tr,
	}

	if workers == 1 {
		if flat := g.RowMajorData(); flat != nil {
			// Serial degenerate case: wavefront order buys nothing without
			// concurrency, so sweep row-major (cache-optimal, and
			// dependency-safe for every contributing set, as in Solve).
			var t0 int64
			var lane *trace.Lane
			if tr != nil {
				lane = tr.Lane(0)
				t0 = lane.Clock()
			}
			row, ok := newFlatKernel(cp, flat, cp.Rows, cp.Cols).fillRowMajor(ctxDone(ctx))
			if lane != nil {
				lane.SpanLabel(trace.KindPhase, "fill:row-major", -1, int64(cp.Rows)*int64(cp.Cols), 0, t0)
			}
			if !ok {
				return nil, canceledErr(ctx, "sequential", row)
			}
			return undo(g), nil
		}
	}

	run := frontRunner(cp, w, g)
	if useBands {
		// Constant-width fronts with no W dependency: column bands with
		// point-to-point neighbour handoff instead of a global barrier.
		needLeft := cp.Deps.Has(DepNW)
		needRight := cp.Deps.Has(DepNE)
		if err := runBands(ctx, cfg, w.Fronts, cp.Cols, needLeft, needRight, run); err != nil {
			return nil, err
		}
		return undo(g), nil
	}
	if err := runWavefronts(ctx, cfg, w.Fronts, w.Size, run); err != nil {
		return nil, err
	}
	return undo(g), nil
}
