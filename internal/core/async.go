package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/table"
	"repro/internal/trace"
)

// Asynchronous work-efficient executor: dependency counters instead of
// front barriers.
//
// The pool runtime (pool.go) is level-synchronous — every wavefront ends
// in an epoch barrier, and the trace analyzer quantifies what those
// barriers cost (stall.barrier_ns). Following the dependency-counter
// scheme of "Parallel and (Nearly) Work-Efficient Dynamic Programming"
// (arXiv 2404.16314) and Shen et al. (arXiv 2205.13077), this executor
// drops the barrier entirely:
//
//   - every cell carries an atomic in-degree counter initialized to its
//     number of in-bounds dependencies under the raw mask;
//   - a worker that computes a cell decrements the counter of each
//     dependent; the decrement that reaches zero makes the dependent
//     ready — it is either kept as the worker's own continuation
//     (depth-first, so serial chains never touch the queue) or pushed on
//     a lock-free MPMC ready queue;
//   - workers loop: take a ready cell, compute it, publish. No fronts are
//     ever materialized and no worker waits for stragglers of a front it
//     has no dependency on.
//
// No canonicalization is needed: all four neighbour offsets of every
// valid mask point to an earlier row or left in the same row, so the raw
// dependency graph is acyclic for each of the 15 masks, and topological
// progress is guaranteed no matter the completion order.
//
// The ready queue is a fixed array of one slot per cell. Each cell is
// enqueued at most once (only the decrement that hits zero enqueues), so
// producers reserve a slot with one atomic tail bump and publish with one
// atomic slot store; consumers claim with a CAS on head, bounded by tail.
// Go atomics are sequentially consistent, which gives the happens-before
// chain a dependent needs: each dependency's grid write precedes its
// counter decrement, the decrements form a total order on the counter,
// and the zero-observing decrementer's enqueue (or continuation) precedes
// the dependent's neighbour reads. DESIGN.md §15 states this as a
// lattice-linear-predicate argument.
//
// Cost: two O(cells) int32 arrays (counters + queue slots), the same
// order as the table itself. The trade is explicit — barrier-free
// scheduling needs per-cell state where the pool needs per-front state.

const (
	// asyncCancelEvery is how many computed cells a worker goes between
	// polls of the context's done channel (same granularity class as the
	// pool's per-chunk poll).
	asyncCancelEvery = 256
	// asyncSampleEvery is how many computed cells a worker goes between
	// KindReady queue-depth samples when tracing.
	asyncSampleEvery = 1024
	// asyncFlushCells caps one KindTask span so long-running workers
	// still produce a timeline with visible structure.
	asyncFlushCells = 8192
)

// asyncEngine is the shared state of one async solve. It is built once
// (counters initialized, initially-ready cells enqueued) and then driven
// by worker loops — either the engine's own goroutines (SolveAsyncContext) or
// scheduler workers running NewAsyncWorkload chunks.
type asyncEngine[T any] struct {
	k          *flatKernel[T]
	rows, cols int
	total      int64

	hasW, hasNW, hasN, hasNE bool

	// counters[c] is the number of not-yet-published dependencies of cell
	// c (row-major index). The decrement to zero transfers ownership of
	// the cell to exactly one worker.
	counters []atomic.Int32
	// slots is the MPMC ready ring: one slot per cell, each written at
	// most once, holding cell+1 so zero means "not yet published".
	slots []atomic.Int32
	head  atomic.Int64 // next slot to claim
	tail  atomic.Int64 // next slot to reserve

	completed atomic.Int64
	// rowLeft[i] counts the cells of row i not yet computed; the first
	// row with a nonzero count is Canceled.Front on cancellation.
	rowLeft  []atomic.Int32
	finished atomic.Bool
	canceled atomic.Bool
	done     <-chan struct{}

	stats []poolWorkerStat
	lanes []*trace.Lane
}

// newAsyncEngine validates the problem, allocates the grid and the
// per-cell scheduling state, and seeds the ready queue with every cell
// whose in-degree is zero under the mask. It returns the engine, the
// grid it fills, and the resolved worker count.
func newAsyncEngine[T any](ctx context.Context, p *Problem[T], opts Options) (*asyncEngine[T], *table.Grid[T], int, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if err := opts.Validate(); err != nil {
		return nil, nil, 0, err
	}
	total := int64(p.Rows) * int64(p.Cols)
	if total > math.MaxInt32 {
		// Cell indices live in the int32 queue slots and counters.
		return nil, nil, 0, fmt.Errorf("core: async executor supports at most %d cells, got %d", math.MaxInt32, total)
	}
	workers := opts.NativeWorkers
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	if int64(workers) > total {
		workers = int(total)
	}
	g := table.NewGrid[T](p.Rows, p.Cols, nil) // nil layout = row-major
	e := &asyncEngine[T]{
		k:    newFlatKernel(p, g.RowMajorData(), p.Rows, p.Cols),
		rows: p.Rows, cols: p.Cols, total: total,
		hasW:  p.Deps.Has(DepW),
		hasNW: p.Deps.Has(DepNW),
		hasN:  p.Deps.Has(DepN),
		hasNE: p.Deps.Has(DepNE),
		counters: make([]atomic.Int32, total),
		slots:    make([]atomic.Int32, total),
		rowLeft:  make([]atomic.Int32, p.Rows),
		done:     ctxDone(ctx),
	}
	// Single-threaded init: plain stores into the atomics are fine, the
	// worker spawn publishes them.
	ready := int64(0)
	idx := int32(0)
	for i := 0; i < e.rows; i++ {
		e.rowLeft[i].Store(int32(e.cols))
		for j := 0; j < e.cols; j++ {
			c := int32(0)
			if e.hasW && j > 0 {
				c++
			}
			if i > 0 {
				if e.hasNW && j > 0 {
					c++
				}
				if e.hasN {
					c++
				}
				if e.hasNE && j+1 < e.cols {
					c++
				}
			}
			e.counters[idx].Store(c)
			if c == 0 {
				e.slots[ready].Store(idx + 1)
				ready++
			}
			idx++
		}
	}
	e.tail.Store(ready)
	return e, g, workers, nil
}

// enqueue publishes a ready cell. Called by at most one worker per cell
// (the zero-observing decrementer), so every slot is written exactly once
// and tail never outruns the slot array.
func (e *asyncEngine[T]) enqueue(cell int32) {
	s := e.tail.Add(1) - 1
	e.slots[s].Store(cell + 1)
}

// dequeue claims the next ready cell, spinning through the transient
// empty-queue states where all remaining work is in flight on other
// workers. Returns -1 when the solve is finished or canceled. Progress
// argument: if every worker sits in dequeue, no cell is in flight, so
// every computed cell has fully published; the topologically next
// uncomputed cell then has in-degree zero and is in the queue — the
// queue cannot be empty unless the solve is complete.
func (e *asyncEngine[T]) dequeue() int32 {
	spins := 0
	for {
		if e.finished.Load() || e.canceled.Load() {
			return -1
		}
		h := e.head.Load()
		if h < e.tail.Load() {
			if !e.head.CompareAndSwap(h, h+1) {
				continue
			}
			// The producer bumps tail before storing the slot; the store
			// is at most a few instructions behind.
			for {
				if v := e.slots[h].Load(); v != 0 {
					return v - 1
				}
				runtime.Gosched()
			}
		}
		spins++
		if spins&63 == 0 {
			if isDone(e.done) {
				e.canceled.Store(true)
				return -1
			}
			runtime.Gosched()
		}
		if spins > 1<<16 {
			// Long drought: another worker is deep in a serial chain.
			// Back off the CPU instead of burning it.
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// work is the async worker loop: claim a ready cell, compute it, publish
// to its dependents, repeat. One newly-ready dependent is kept as the
// local continuation — depth-first execution that keeps serial chains
// (e.g. Nx1 knight tables) off the shared queue entirely.
func (e *asyncEngine[T]) work(w int) {
	var st *poolWorkerStat
	if e.stats != nil {
		st = &e.stats[w]
	}
	var ln *trace.Lane
	if e.lanes != nil {
		ln = e.lanes[w]
	}
	instrumented := st != nil || ln != nil

	var batchT0 time.Time
	batchCells := 0
	lastRow := 0
	flush := func() {
		if batchCells == 0 {
			return
		}
		if st != nil {
			st.busy += time.Since(batchT0)
			st.chunks++
			st.cells += batchCells
		}
		if ln != nil {
			ln.SpanFrom(trace.KindTask, lastRow, 0, int64(batchCells), batchT0)
		}
		batchCells = 0
	}

	local := int32(-1)
	ready := func(d int32) {
		if local < 0 {
			local = d
		} else {
			e.enqueue(d)
		}
	}
	sincePoll, sinceSample := 0, 0
	for {
		cell := local
		local = -1
		if cell < 0 {
			flush()
			cell = e.dequeue()
			if cell < 0 {
				return
			}
		}
		if instrumented && batchCells == 0 {
			batchT0 = time.Now()
		}
		i := int(cell) / e.cols
		j := int(cell) - i*e.cols
		e.k.cell(i, j)
		batchCells++
		lastRow = i

		// Publish: decrement the in-degree of each in-bounds dependent.
		// The reverse edges of (i, j) are the mask's offsets mirrored:
		// W feeds (i, j+1), NW feeds (i+1, j+1), N feeds (i+1, j),
		// NE feeds (i+1, j-1).
		if e.hasW && j+1 < e.cols {
			if e.counters[cell+1].Add(-1) == 0 {
				ready(cell + 1)
			}
		}
		if i+1 < e.rows {
			down := cell + int32(e.cols)
			if e.hasN {
				if e.counters[down].Add(-1) == 0 {
					ready(down)
				}
			}
			if e.hasNW && j+1 < e.cols {
				if e.counters[down+1].Add(-1) == 0 {
					ready(down + 1)
				}
			}
			if e.hasNE && j > 0 {
				if e.counters[down-1].Add(-1) == 0 {
					ready(down - 1)
				}
			}
		}

		e.rowLeft[i].Add(-1)
		if e.completed.Add(1) == e.total {
			e.finished.Store(true)
			flush()
			return
		}

		sincePoll++
		if sincePoll >= asyncCancelEvery {
			sincePoll = 0
			if isDone(e.done) {
				e.canceled.Store(true)
				flush()
				return
			}
		}
		if ln != nil {
			sinceSample++
			if sinceSample >= asyncSampleEvery {
				sinceSample = 0
				ln.Instant(trace.KindReady, i, e.tail.Load()-e.head.Load(), e.completed.Load())
			}
		}
		if batchCells >= asyncFlushCells {
			flush()
		}
	}
}

// firstIncompleteRow is Canceled.Front for the async executor: the async
// schedule has no fronts, so progress is reported in row terms — the
// index of the first row not known to be fully computed. Only called
// after the worker join, when all rowLeft decrements are visible.
func (e *asyncEngine[T]) firstIncompleteRow() int {
	for i := range e.rowLeft {
		if e.rowLeft[i].Load() > 0 {
			return i
		}
	}
	return e.rows
}

// SolveAsyncOpt is SolveAsyncContext without a context. It stays
// because the perfbench module calls it.
func SolveAsyncOpt[T any](p *Problem[T], opts Options) (*table.Grid[T], error) {
	return SolveAsyncContext(context.Background(), p, opts)
}

// SolveAsyncContext fills the DP table with the asynchronous
// dependency-counter executor: no wavefronts, no barriers — cells are
// scheduled the moment their last dependency publishes. The Options
// knobs honored are NativeWorkers (<= 0 selects min(GOMAXPROCS,
// NumCPU)), Collector and Tracer; NativeChunk has no meaning here — the
// async schedule has no chunks.
//
// Workers poll the done channel at cell granularity and the interrupted
// solve returns *Canceled with Front naming the first incomplete row (the
// async schedule's progress unit — it has no wavefronts).
func SolveAsyncContext[T any](ctx context.Context, p *Problem[T], opts Options) (grid *table.Grid[T], err error) {
	e, g, workers, err := newAsyncEngine(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	if isDone(e.done) {
		return nil, canceledErr(ctx, "async", 0)
	}

	coll := opts.Collector
	if coll != nil {
		e.stats = make([]poolWorkerStat, workers)
		coll.SolveStart(SolveInfo{
			Solver: "async", Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: "async",
			Rows: p.Rows, Cols: p.Cols, Fronts: p.Rows, Workers: workers,
		})
		start := time.Now()
		defer func() {
			coll.Phase("async", time.Since(start))
			coll.SolveEnd(err)
		}()
	}
	tr := opts.Tracer
	if tr != nil {
		tr.BeginSolve(trace.Meta{
			Solver: "async", Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: "async",
			Rows: p.Rows, Cols: p.Cols, Fronts: p.Rows, Workers: workers,
		})
		defer tr.EndSolve()
		e.lanes = make([]*trace.Lane, workers)
		for w := range e.lanes {
			e.lanes[w] = tr.Lane(w)
		}
	}

	cfg := poolConfig{solver: "async", phase: "async", workers: workers}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func(w int) {
			defer wg.Done()
			pprof.Do(ctx, cfg.poolLabels(w), func(context.Context) { e.work(w) })
		}(i)
	}
	pprof.Do(ctx, cfg.poolLabels(0), func(context.Context) { e.work(0) })
	wg.Wait()

	if coll != nil {
		wall := time.Since(start)
		for w := range e.stats {
			st := &e.stats[w]
			coll.WorkerStats(WorkerStats{
				Worker: w, Chunks: st.chunks, Cells: st.cells,
				Busy: st.busy, Wall: wall,
			})
		}
	}
	if e.canceled.Load() {
		return nil, canceledErr(ctx, "async", e.firstIncompleteRow())
	}
	return g, nil
}

// NewAsyncWorkload adapts an async solve to the scheduler's Workload
// contract. The async schedule has no fronts, so the workload is a single
// front of `workers` independent units, each of which runs one async
// worker loop to completion on the shared engine — the Workload contract
// (cells of one front are concurrency-safe and order-free) holds exactly.
// Submit it with SubmitOptions.Chunk = 1 so scheduler workers claim one
// loop each; a loop claimed after the solve finishes observes the
// finished flag and returns immediately, so stragglers cost nothing.
//
// ctx is captured by the engine for in-loop cancellation: scheduler
// workers running the loops poll it at cell granularity, exactly like
// SolveAsyncContext.
func NewAsyncWorkload[T any](ctx context.Context, p *Problem[T], opts Options) (*Workload, func() *table.Grid[T], error) {
	e, g, workers, err := newAsyncEngine(ctx, p, opts)
	if err != nil {
		return nil, nil, err
	}
	wl := &Workload{
		Info: SolveInfo{
			Solver: "sched-async", Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: "async",
			Rows: p.Rows, Cols: p.Cols, Fronts: 1,
		},
		Fronts:     1,
		TotalCells: e.total,
		Size:       func(int) int { return workers },
		Run: func(_, lo, hi int) {
			for w := lo; w < hi; w++ {
				e.work(w)
			}
		},
	}
	return wl, func() *table.Grid[T] { return g }, nil
}
