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

// The native engine: tile-granular dataflow.
//
// The row-major table is cut into th x tw tiles. Each tile carries an
// atomic in-degree counter over the tile DAG that deriveBlockMask lifts
// from the problem's raw mask, so there is no symmetry reduction and no
// transposed copy of the table. A worker that finishes a tile decrements
// the counters of the tiles that read it; the decrement that reaches zero
// makes that tile ready. The worker keeps the first tile it readies as
// its own next task (depth-first, so serial chains never touch the queue)
// and sends the rest to one bounded ready queue shared by all workers.
// Inside a tile the flat kernel sweeps row-major, which is
// dependency-safe for every contributing set, as in Solve.
//
// Masks containing NE run on skewed tiles. With square tiles a cell's NE
// neighbour can lie in the tile to the east, so that tile would have to
// finish first; under {W, NE} the east tile also reads the west one, and
// the two would wait on each other. Skewed tiles cut the table along
// k = j + i instead of j: a tile is T rows of T cells, each row starting
// one cell left of the row above it. Along k the NE neighbour sits
// straight above and the N and NW neighbours up and to the left, so every
// tile edge points north or west and the tile DAG is acyclic for all 15
// masks, with tiles as large as the NE-free masks get.
//
// With one worker the whole table is one tile, and the engine is the
// floor sweep: the flat kernel over the table in row-major order.
//
// Memory ordering (DESIGN.md §15): a tile's cell writes precede its
// finisher's counter decrements; Go atomics are sequentially consistent,
// so the decrement that reaches zero observes every earlier decrement of
// that counter and the writes before them; the ready tile then passes to
// its worker through the channel send or as the decrementer's own next
// task. Every read a tile makes of another tile's cells is ordered after
// that tile's writes.

// takeSpins is how many times an idle worker polls the ready queue
// before it parks on it.
const takeSpins = 128

// tileEngine is the shared state of one native solve. It is built once
// and then driven by worker loops: the engine's own goroutines
// (solveTiles) or scheduler workers running NewAsyncWorkload units.
type tileEngine[T any] struct {
	k       *flatKernel[T]
	solver  string
	workers int
	th, tw  int     // tile height and width in cells; width along k when skewed
	br, bc  int     // tile rows and columns
	skew    int     // 1: tile columns cut along k = j + i (masks with NE), else 0
	deps    DepMask // tile-level mask (deriveBlockMask)

	// indeg[t] counts tile t's unfinished predecessors; -1 marks a
	// finished tile.
	indeg []atomic.Int32
	// ready holds ready tiles. Each tile is sent at most once and the
	// capacity is the tile count, so a send never blocks.
	ready chan int32
	// left counts unfinished tiles; the worker that finishes the last
	// one closes ready, which releases every waiting worker.
	left     atomic.Int64
	canceled atomic.Bool
	done     <-chan struct{}

	stats []poolWorkerStat // per-worker instrumentation; nil = collector off
	lanes []*trace.Lane    // per-worker trace lanes; nil = tracer off
}

// newTileEngine validates the problem and options, allocates the grid,
// and seeds the ready queue with every tile whose in-degree is zero.
// tile is the tile side (skewed tiles for masks with NE, at least 2 cells
// wide; square otherwise); workers <= 0 in opts selects the
// documented default, and the count is capped at the number of tiles.
func newTileEngine[T any](ctx context.Context, p *Problem[T], tile int, opts Options, solver string) (*tileEngine[T], *table.Grid[T], error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if tile < 1 {
		return nil, nil, fmt.Errorf("core: tile size %d < 1", tile)
	}
	workers := opts.NativeWorkers
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	th, tw, skew := tile, tile, 0
	if p.Deps.Has(DepNE) {
		tw, skew = max(tile, 2), 1
	}
	if workers == 1 {
		th, tw, skew = p.Rows, p.Cols, 0
	}
	span := p.Cols + skew*(p.Rows-1) // extent of the tile-column axis
	th, tw = min(th, p.Rows), min(tw, span)
	br, bc := (p.Rows+th-1)/th, (span+tw-1)/tw
	tiles := int64(br) * int64(bc)
	if tiles > math.MaxInt32 {
		return nil, nil, fmt.Errorf("core: %d tiles exceed the engine's int32 tile index; use a larger tile", tiles)
	}
	g := table.NewGrid[T](p.Rows, p.Cols, nil) // nil layout = row-major
	e := &tileEngine[T]{
		k:       newFlatKernel(p, g.RowMajorData(), p.Rows, p.Cols),
		solver:  solver,
		workers: int(min(int64(workers), tiles)),
		th:      th, tw: tw, br: br, bc: bc, skew: skew,
		indeg: make([]atomic.Int32, tiles),
		ready: make(chan int32, tiles),
		done:  ctxDone(ctx),
	}
	if tiles > 1 {
		e.deps = deriveBlockMask(skewMask(p.Deps, skew), th)
	}
	// Single-threaded init: the worker start publishes these stores.
	for t := range e.indeg {
		bi, bj := t/bc, t%bc
		d := int32(0)
		if e.deps.Has(DepW) && bj > 0 {
			d++
		}
		if bi > 0 {
			if e.deps.Has(DepNW) && bj > 0 {
				d++
			}
			if e.deps.Has(DepN) {
				d++
			}
			if e.deps.Has(DepNE) && bj+1 < bc {
				d++
			}
		}
		e.indeg[t].Store(d)
		if d == 0 {
			e.ready <- int32(t)
		}
	}
	e.left.Store(tiles)
	return e, g, nil
}

// info describes the solve for Collector and trace wiring. The engine
// runs the problem's own pattern (no symmetry reduction) and reports
// progress in rows, so Fronts is the row count.
func (e *tileEngine[T]) info() SolveInfo {
	pattern := Classify(e.k.p.Deps).String()
	return SolveInfo{
		Solver: e.solver, Problem: e.k.p.Name, Pattern: pattern, Executed: pattern,
		Rows: e.k.rows, Cols: e.k.cols, Fronts: e.k.rows, Workers: e.workers,
	}
}

// work is one worker's loop: take a ready tile (its own next task, else
// one from the queue), fill it, release its dependents, repeat. It
// returns when the queue closes (solve finished) or the context ends.
func (e *tileEngine[T]) work(w int) {
	var st *poolWorkerStat
	if e.stats != nil {
		st = &e.stats[w]
	}
	var ln *trace.Lane
	if e.lanes != nil {
		ln = e.lanes[w]
	}
	next := int32(-1)
	for {
		t := next
		if t < 0 {
			if t = e.take(); t < 0 {
				return
			}
		}
		if e.canceled.Load() {
			return
		}
		var t0 time.Time
		if st != nil || ln != nil {
			t0 = time.Now()
		}
		row, cells, ok := e.fill(t)
		if !ok {
			e.canceled.Store(true)
			return
		}
		if st != nil {
			st.busy += time.Since(t0)
			st.chunks++
			st.cells += cells
		}
		if ln != nil {
			ln.SpanFrom(trace.KindTask, row, 0, int64(cells), t0)
		}
		e.indeg[t].Store(-1)
		next = e.release(t)
		left := e.left.Add(-1)
		if ln != nil {
			ln.Instant(trace.KindReady, row, int64(len(e.ready)), int64(len(e.indeg))-left)
		}
		if left == 0 {
			close(e.ready)
			return
		}
	}
}

// take returns a tile from the ready queue, or -1 once the queue is
// closed (solve finished) or the context ended. It polls the queue
// takeSpins times before parking: with small tiles the next tile is
// often a few microseconds away, less than a park and wake costs.
func (e *tileEngine[T]) take() int32 {
	for k := 0; k < takeSpins; k++ {
		select {
		case t, ok := <-e.ready:
			if !ok {
				return -1
			}
			return t
		default:
			runtime.Gosched()
		}
	}
	select {
	case t, ok := <-e.ready:
		if !ok {
			return -1
		}
		return t
	case <-e.done:
		e.canceled.Store(true)
		return -1
	}
}

// fill sweeps tile t row-major with the flat kernel, polling the done
// channel once per row. On a skewed tile row i holds the cells with
// j + i in the tile's k range, clipped to the table. It returns the tile's first row and cell count,
// and false if the context ended first.
func (e *tileEngine[T]) fill(t int32) (row, cells int, ok bool) {
	bi, bj := int(t)/e.bc, int(t)%e.bc
	iLo, kLo := bi*e.th, bj*e.tw
	iHi, kHi := min(iLo+e.th, e.k.rows), kLo+e.tw
	for i := iLo; i < iHi; i++ {
		if isDone(e.done) {
			return iLo, 0, false
		}
		jLo, jHi := max(kLo-e.skew*i, 0), min(kHi-e.skew*i, e.k.cols)
		for j := jLo; j < jHi; j++ {
			e.k.cell(i, j)
		}
		cells += max(jHi-jLo, 0)
	}
	return iLo, cells, true
}

// release decrements the in-degree of each tile that reads tile t and
// returns the first one that became ready, or -1; the others go on the
// ready queue. The edges are the tile mask mirrored: N feeds the south
// tile, NE the south-west one, NW the south-east one and W the east one.
// The south tile comes first because it shares the most data with t.
func (e *tileEngine[T]) release(t int32) int32 {
	bi, bj := int(t)/e.bc, int(t)%e.bc
	next := int32(-1)
	dec := func(d int32) {
		if e.indeg[d].Add(-1) == 0 {
			if next < 0 {
				next = d
			} else {
				e.ready <- d
			}
		}
	}
	if bi+1 < e.br {
		down := t + int32(e.bc)
		if e.deps.Has(DepN) {
			dec(down)
		}
		if e.deps.Has(DepNE) && bj > 0 {
			dec(down - 1)
		}
		if e.deps.Has(DepNW) && bj+1 < e.bc {
			dec(down + 1)
		}
	}
	if e.deps.Has(DepW) && bj+1 < e.bc {
		dec(t + 1)
	}
	return next
}

// firstIncompleteRow is Canceled.Front: the first row of the first tile,
// in row-major tile order, that did not finish. Every tile row above it
// finished. Only called after the workers joined.
func (e *tileEngine[T]) firstIncompleteRow() int {
	for t := range e.indeg {
		if e.indeg[t].Load() >= 0 {
			return t / e.bc * e.th
		}
	}
	return e.k.rows
}

// solveTiles runs one solve on the engine with its own workers: worker 0
// is the caller, the others are goroutines started for this solve.
func solveTiles[T any](ctx context.Context, p *Problem[T], tile int, opts Options, solver string) (grid *table.Grid[T], err error) {
	e, g, err := newTileEngine(ctx, p, tile, opts, solver)
	if err != nil {
		return nil, err
	}
	if isDone(e.done) {
		return nil, canceledErr(ctx, solver, 0)
	}
	info := e.info()
	coll := opts.Collector
	if coll != nil {
		e.stats = make([]poolWorkerStat, e.workers)
		coll.SolveStart(info)
		start := time.Now()
		defer func() {
			coll.Phase("native", time.Since(start))
			coll.SolveEnd(err)
		}()
	}
	if tr := opts.Tracer; tr != nil {
		tr.BeginSolve(trace.Meta{
			Solver: solver, Problem: p.Name, Pattern: info.Pattern, Executed: info.Executed,
			Rows: p.Rows, Cols: p.Cols, Fronts: info.Fronts, Workers: e.workers,
		})
		defer tr.EndSolve()
		e.lanes = make([]*trace.Lane, e.workers)
		for w := range e.lanes {
			e.lanes[w] = tr.Lane(w)
		}
	}

	cfg := poolConfig{solver: solver, phase: "tiles"}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(e.workers - 1)
	for i := 1; i < e.workers; i++ {
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
	if e.left.Load() > 0 {
		return nil, canceledErr(ctx, solver, e.firstIncompleteRow())
	}
	return g, nil
}

// SolveParallelContext fills the DP table on the host with the native
// tile engine, at the tile size DefaultTile(p.BytesPerCell). It produces
// the same values as Solve. The Options knobs honored are NativeWorkers
// (<= 0 selects min(GOMAXPROCS, NumCPU)), Collector and Tracer; the
// other fields, NativeChunk included, do not apply to it.
//
// Workers poll ctx once per tile row. A cancel or deadline expiry stops
// them promptly and returns a nil grid and a *Canceled error, whose Front
// is the first row not known to be fully computed. An uncancellable
// context costs nothing on the hot path.
func SolveParallelContext[T any](ctx context.Context, p *Problem[T], opts Options) (*table.Grid[T], error) {
	return solveTiles(ctx, p, DefaultTile(p.BytesPerCell), opts, "pool")
}

// SolveParallelOpt is SolveParallelContext without a context. It stays
// because the perfbench module calls it.
func SolveParallelOpt[T any](p *Problem[T], opts Options) (*table.Grid[T], error) {
	return SolveParallelContext(context.Background(), p, opts)
}

// SolveTiledContext is SolveParallelContext at an explicit tile size;
// tile must be at least 1. Masks containing NE run on skewed tiles at
// least 2 cells wide. The perfbench module calls this entry point.
func SolveTiledContext[T any](ctx context.Context, p *Problem[T], tile int, opts Options) (*table.Grid[T], error) {
	return solveTiles(ctx, p, tile, opts, "pool")
}

// SolveAsyncContext is the Async strategy's entry point: the same tile
// engine as SolveParallelContext, reported under the solver name "async".
func SolveAsyncContext[T any](ctx context.Context, p *Problem[T], opts Options) (*table.Grid[T], error) {
	return solveTiles(ctx, p, DefaultTile(p.BytesPerCell), opts, "async")
}

// SolveAsyncOpt is SolveAsyncContext without a context. It stays
// because the perfbench module calls it.
func SolveAsyncOpt[T any](p *Problem[T], opts Options) (*table.Grid[T], error) {
	return SolveAsyncContext(context.Background(), p, opts)
}

// NewAsyncWorkload runs the tile engine on the shared scheduler. The
// workload is a single front of NativeWorkers independent units, each
// one engine worker loop over the shared tile queue, so the Workload
// contract (cells of one front are concurrency-safe and order-free)
// holds exactly. Submit it with SubmitOptions.Chunk = 1 so scheduler
// workers claim one loop each; a loop that finds the queue closed (solve
// finished) or ctx ended returns at once, so stragglers cost nothing.
//
// ctx is captured by the engine: the loops poll it once per tile row.
func NewAsyncWorkload[T any](ctx context.Context, p *Problem[T], opts Options) (*Workload, func() *table.Grid[T], error) {
	e, g, err := newTileEngine(ctx, p, DefaultTile(p.BytesPerCell), opts, "sched-async")
	if err != nil {
		return nil, nil, err
	}
	info := e.info()
	info.Fronts, info.Workers = 1, 0
	wl := &Workload{
		Info:       info,
		Fronts:     1,
		TotalCells: int64(p.Rows) * int64(p.Cols),
		Size:       func(int) int { return e.workers },
		Run: func(_, lo, hi int) {
			for w := lo; w < hi; w++ {
				e.work(w)
			}
		},
	}
	return wl, func() *table.Grid[T] { return g }, nil
}

// skewMask is the contributing set seen along the tile axes: with skew 1
// a cell's column coordinate is k = j + i, so W stays W, NE becomes N,
// and N and NW become NW, NW's step of two columns still landing at most
// one tile west because skewed tiles are at least 2 columns wide.
func skewMask(m DepMask, skew int) DepMask {
	if skew == 0 {
		return m
	}
	var out DepMask
	if m.Has(DepW) {
		out |= DepW
	}
	if m.Has(DepN) || m.Has(DepNW) {
		out |= DepNW
	}
	if m.Has(DepNE) {
		out |= DepN
	}
	return out
}

// deriveBlockMask lifts a cell-level contributing set to tile
// granularity: for each cell dependency offset, the union of tile
// offsets it can land in, excluding the tile itself. NE is only liftable
// onto 1-row tiles, where it never lands in the east tile of the same
// tile row; the engine never passes NE, which skewMask turns into N.
//
//	cell W  (0,-1)  -> tile W
//	cell NW (-1,-1) -> tiles W, NW, N   (W only when tileRows > 1)
//	cell N  (-1,0)  -> tile N
//	cell NE (-1,1)  -> tiles N, NE      (requires tileRows == 1)
func deriveBlockMask(m DepMask, tileRows int) DepMask {
	var out DepMask
	if m.Has(DepW) {
		out |= DepW
	}
	if m.Has(DepNW) {
		out |= DepNW | DepN
		if tileRows > 1 {
			out |= DepW
		}
	}
	if m.Has(DepN) {
		out |= DepN
	}
	if m.Has(DepNE) {
		if tileRows > 1 {
			panic("core: NE-containing masks require 1-row tiles")
		}
		out |= DepN | DepNE
	}
	return out
}

// DefaultTile returns the largest tile size whose tile (tile x tile cells
// at bytesPerCell each) still fits a typical per-core L2 slice of 256 KiB.
func DefaultTile(bytesPerCell int) int {
	if bytesPerCell <= 0 {
		bytesPerCell = 8
	}
	const budget = 256 << 10
	t := 1
	for (t+1)*(t+1)*bytesPerCell <= budget {
		t++
	}
	return t
}
