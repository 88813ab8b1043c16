package core

import (
	"context"
	"time"

	"repro/internal/hetsim"
	"repro/internal/table"
	"repro/internal/trace"
)

// Solve3 fills the 3-D table sequentially in lexicographic order, which is
// dependency-safe for every subset of the seven predecessor corners (no
// offset has a positive component).
func Solve3[T any](p *Problem3[T]) (*table.Grid3[T], error) {
	return Solve3Context(context.Background(), p)
}

// Solve3Context is Solve3 honoring a context, polled once per i-slab. A
// canceled solve returns a nil grid and a *Canceled error.
func Solve3Context[T any](ctx context.Context, p *Problem3[T]) (*table.Grid3[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	done := ctxDone(ctx)
	g := table.NewGrid3[T](p.NX, p.NY, p.NZ, nil)
	for i := 0; i < p.NX; i++ {
		if isDone(done) {
			return nil, canceledErr(ctx, "sequential3", i)
		}
		for j := 0; j < p.NY; j++ {
			for k := 0; k < p.NZ; k++ {
				g.Set(i, j, k, p.F(i, j, k, gather3(p, g, i, j, k)))
			}
		}
	}
	return g, nil
}

// forEachPlaneCell enumerates the cells of plane s (i+j+k = s) in
// (i, then j) order, calling fn for the cell range [lo, hi) of the plane.
func forEachPlaneCell[T any](p *Problem3[T], s, lo, hi int, fn func(i, j, k int)) {
	idx := 0
	for i := max(0, s-(p.NY-1)-(p.NZ-1)); i <= min(p.NX-1, s); i++ {
		firstJ, count := table.PlaneRowSpan(p.NY, p.NZ, s, i)
		if idx+count <= lo {
			idx += count
			continue
		}
		for jj := 0; jj < count; jj++ {
			if idx >= hi {
				return
			}
			if idx >= lo {
				j := firstJ + jj
				fn(i, j, s-i-j)
			}
			idx++
		}
	}
}

// SolveParallel3Context fills the table with real goroutines over
// anti-diagonal planes: all cells of a plane are mutually independent for
// every contributing set (each predecessor lowers i+j+k by at least 1).
// Options carries NativeWorkers/NativeChunk sizing plus the Collector and
// Tracer sinks, wired through the pool runtime exactly as in the 2-D
// executors. ctx is polled once per chunk claim; a canceled solve returns
// a nil grid and a *Canceled error.
func SolveParallel3Context[T any](ctx context.Context, p *Problem3[T], opts Options) (grid *table.Grid3[T], err error) {
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
	planes := p.Planes()
	planeSize := func(s int) int { return table.PlaneSize(p.NX, p.NY, p.NZ, s) }
	if c := opts.Collector; c != nil {
		c.SolveStart(SolveInfo{
			Solver: "pool3", Problem: p.Name,
			Rows: p.NX, Cols: p.NY * p.NZ, Fronts: planes, Workers: workers,
		})
		for s := 0; s < planes; s++ {
			c.FrontSize(planeSize(s))
		}
		defer func() { c.SolveEnd(err) }()
	}
	if tr := opts.Tracer; tr != nil {
		tr.BeginSolve(trace.Meta{
			Solver: "pool3", Problem: p.Name,
			Rows: p.NX, Cols: p.NY * p.NZ, Fronts: planes, Workers: workers,
		})
		defer tr.EndSolve()
	}
	g := table.NewGrid3[T](p.NX, p.NY, p.NZ, nil)
	chunk := opts.NativeChunk
	if chunk <= 0 {
		chunk = defaultNativeChunk
	}
	// Planes grow and shrink like 2-D anti-diagonals; the pool runtime's
	// serial cutoff keeps the small end planes on the advancing worker.
	cfg := poolConfig{
		solver: "pool3", phase: "planes", workers: workers, chunk: chunk,
		coll: opts.Collector, rec: opts.Tracer,
	}
	err = runWavefronts(ctx, cfg, planes, planeSize, func(s, lo, hi int) {
		forEachPlaneCell(p, s, lo, hi, func(i, j, k int) {
			g.Set(i, j, k, p.F(i, j, k, gather3(p, g, i, j, k)))
		})
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Result3 is the outcome of a simulated 3-D solve.
type Result3[T any] struct {
	Grid     *table.Grid3[T]
	TSwitch  int
	TShare   int
	Timeline hetsim.Timeline
}

// Duration returns the simulated wall-clock time of the solve.
func (r *Result3[T]) Duration() time.Duration { return r.Timeline.Makespan() }

// SolveHetero3 runs the 3-D analogue of the anti-diagonal strategy: planes
// grow then shrink, so the first and last tSwitch planes stay on the CPU,
// and in between the CPU takes the cells of the top tShare i-layers of
// each plane while the GPU takes the rest. All dependencies point toward
// smaller coordinates, so — exactly as in 2-D — the CPU band never reads
// GPU cells and the boundary traffic is strictly one-way CPU->GPU.
// The simulated kernels assume the plane-major layout (coalesced fronts).
func SolveHetero3[T any](p *Problem3[T], opts Options) (*Result3[T], error) {
	return solveSim3(context.Background(), p, opts, modeHetero)
}

// SolveHetero3Context is SolveHetero3 honoring a context, polled once per
// plane. A canceled solve returns a nil result and a *Canceled error.
func SolveHetero3Context[T any](ctx context.Context, p *Problem3[T], opts Options) (*Result3[T], error) {
	return solveSim3(ctx, p, opts, modeHetero)
}

// SolveCPUOnly3 is the 3-D multicore baseline.
func SolveCPUOnly3[T any](p *Problem3[T], opts Options) (*Result3[T], error) {
	return solveSim3(context.Background(), p, opts, modeCPUOnly)
}

// SolveCPUOnly3Context is SolveCPUOnly3 honoring a context.
func SolveCPUOnly3Context[T any](ctx context.Context, p *Problem3[T], opts Options) (*Result3[T], error) {
	return solveSim3(ctx, p, opts, modeCPUOnly)
}

// SolveGPUOnly3 is the 3-D pure-accelerator baseline.
func SolveGPUOnly3[T any](p *Problem3[T], opts Options) (*Result3[T], error) {
	return solveSim3(context.Background(), p, opts, modeGPUOnly)
}

// SolveGPUOnly3Context is SolveGPUOnly3 honoring a context.
func SolveGPUOnly3Context[T any](ctx context.Context, p *Problem3[T], opts Options) (*Result3[T], error) {
	return solveSim3(ctx, p, opts, modeGPUOnly)
}

func solveSim3[T any](ctx context.Context, p *Problem3[T], opts Options, mode solveMode) (res *Result3[T], err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Platform == nil {
		opts.Platform = hetsim.HeteroHigh()
	}
	planes := p.Planes()
	planeSize := func(s int) int { return table.PlaneSize(p.NX, p.NY, p.NZ, s) }

	if opts.TSwitch < 0 {
		breakEven := breakEvenWidth(opts.Platform)
		opts.TSwitch = 0
		for s := 0; s < planes/2 && planeSize(s) < breakEven; s++ {
			opts.TSwitch++
		}
	}
	// bandCells returns how many leading cells of plane s lie in the top
	// `layers` i-layers (plane cells are ordered by i first). The i-band is
	// the dependency-closed CPU region: every predecessor offset keeps or
	// decreases i, so a band cell never reads a GPU cell.
	bandCells := func(s, layers int) int {
		n := 0
		for i := max(0, s-(p.NY-1)-(p.NZ-1)); i <= min(p.NX-1, min(s, layers-1)); i++ {
			_, c := table.PlaneRowSpan(p.NY, p.NZ, s, i)
			n += c
		}
		return n
	}
	if opts.TShare < 0 {
		// tShare counts top i-layers. Unlike the 2-D row band (at most one
		// cell per row per diagonal), an i-layer's share of a plane grows
		// with the plane width, so a fixed layer count must be feasible on
		// *every* phase-2 plane: pick the largest band whose CPU region
		// never outlasts the residual GPU kernel. Feasibility is monotone
		// in the band, so binary search applies.
		tSwitch := clampTSwitch(opts.TSwitch, planes)
		feasible := func(layers int) bool {
			for s := tSwitch; s < planes-tSwitch; s++ {
				size := planeSize(s)
				nCPU := min(bandCells(s, layers), size)
				if nCPU == 0 || nCPU == size {
					continue
				}
				cpuT := opts.Platform.CPU.RegionDuration(nCPU, true)
				gpuT := opts.Platform.GPU.KernelDuration(size-nCPU, true)
				if float64(cpuT) > 0.85*float64(gpuT) {
					return false
				}
			}
			return true
		}
		lo, hi := 0, p.NX
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if feasible(mid) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		opts.TShare = lo
	}

	var g *table.Grid3[T]
	if !opts.SkipCompute {
		g = table.NewGrid3[T](p.NX, p.NY, p.NZ, nil)
	}
	sim := hetsim.NewSim(opts.Platform)
	bpc := p.bytesPerCell()

	done := ctxDone(ctx)
	solver := mode.String() + "-3d"
	coll := opts.Collector
	if coll != nil {
		coll.SolveStart(SolveInfo{
			Solver: solver, Problem: p.Name,
			Rows: p.NX, Cols: p.NY * p.NZ, Fronts: planes,
		})
		for s := 0; s < planes; s++ {
			coll.FrontSize(planeSize(s))
		}
		defer func() { coll.SolveEnd(err) }()
	}

	compute := func(s, lo, hi int) {
		if g == nil {
			return
		}
		forEachPlaneCell(p, s, lo, hi, func(i, j, k int) {
			g.Set(i, j, k, p.F(i, j, k, gather3(p, g, i, j, k)))
		})
	}
	cpuOp := func(s, lo, hi int, deps ...hetsim.OpID) hetsim.OpID {
		if hi <= lo {
			return hetsim.NoOp
		}
		compute(s, lo, hi)
		return sim.Submit(hetsim.Op{
			Resource: hetsim.ResCPU, Kind: hetsim.OpCompute,
			Duration: opts.Platform.CPU.RegionDuration(hi-lo, true),
			Label:    "cpu:plane", Cells: hi - lo,
		}, deps...)
	}
	gpuOp := func(s, lo, hi int, deps ...hetsim.OpID) hetsim.OpID {
		if hi <= lo {
			return hetsim.NoOp
		}
		compute(s, lo, hi)
		return sim.Submit(hetsim.Op{
			Resource: hetsim.ResGPU, Kind: hetsim.OpCompute,
			Duration: opts.Platform.GPU.KernelDuration(hi-lo, true),
			Label:    "gpu:plane", Cells: hi - lo,
		}, deps...)
	}

	cpuCells := func(s int) int { return bandCells(s, opts.TShare) }

	switch mode {
	case modeCPUOnly:
		last := hetsim.NoOp
		for s := 0; s < planes; s++ {
			if isDone(done) {
				return nil, canceledErr(ctx, solver, s)
			}
			last = cpuOp(s, 0, planeSize(s), last)
		}
	case modeGPUOnly:
		upload := hetsim.NoOp
		if p.InputBytes > 0 {
			if coll != nil {
				coll.Transfer(TransferStats{ToDevice: true, Bytes: p.InputBytes})
			}
			upload = sim.Submit(hetsim.Op{
				Resource: hetsim.ResCopyH2D, Kind: hetsim.OpTransfer,
				Duration: opts.Platform.Bus.TransferDuration(p.InputBytes, false),
				Label:    "h2d:input", Bytes: p.InputBytes,
			})
		}
		last := hetsim.NoOp
		for s := 0; s < planes; s++ {
			if isDone(done) {
				return nil, canceledErr(ctx, solver, s)
			}
			last = gpuOp(s, 0, planeSize(s), last, upload)
		}
	default:
		tSwitch := clampTSwitch(opts.TSwitch, planes)
		p2Start, p3Start := tSwitch, planes-tSwitch
		lastCPU, lastGPU := hetsim.NoOp, hetsim.NoOp
		prevBoundary := hetsim.NoOp
		syncUp, syncDown := hetsim.NoOp, hetsim.NoOp
		for s := 0; s < planes; s++ {
			if isDone(done) {
				return nil, canceledErr(ctx, solver, s)
			}
			size := planeSize(s)
			switch {
			case s < p2Start || s >= p3Start:
				if s == p3Start && lastGPU != hetsim.NoOp {
					// Phase 2 -> 3: pull the GPU parts of the last two
					// planes down for the CPU tail.
					bytes := (planeSize(s-1) + planeSize(max(0, s-2))) * bpc
					if coll != nil {
						coll.Transfer(TransferStats{Bytes: bytes})
					}
					syncDown = sim.Submit(hetsim.Op{
						Resource: hetsim.ResCopyD2H, Kind: hetsim.OpTransfer,
						Duration: opts.Platform.Bus.TransferDuration(bytes, false),
						Label:    "d2h:phase2-sync", Bytes: bytes,
					}, lastGPU)
				}
				lastCPU = cpuOp(s, 0, size, lastCPU, syncDown)
			default:
				if s == p2Start && s > 0 {
					bytes := (planeSize(s-1) + planeSize(max(0, s-2))) * bpc
					if coll != nil {
						coll.Transfer(TransferStats{ToDevice: true, Bytes: bytes})
					}
					syncUp = sim.Submit(hetsim.Op{
						Resource: hetsim.ResCopyH2D, Kind: hetsim.OpTransfer,
						Duration: opts.Platform.Bus.TransferDuration(bytes, false),
						Label:    "h2d:phase1-sync", Bytes: bytes,
					}, lastCPU)
				}
				nCPU := min(cpuCells(s), size)
				if nCPU > 0 {
					lastCPU = cpuOp(s, 0, nCPU, lastCPU)
				}
				if nCPU < size {
					lastGPU = gpuOp(s, nCPU, size, lastGPU, syncUp, prevBoundary)
				}
				if nCPU > 0 && nCPU < size {
					if coll != nil {
						coll.Transfer(TransferStats{Boundary: true, ToDevice: true, Bytes: bpc, Cells: 1})
					}
					prevBoundary = sim.Submit(hetsim.Op{
						Resource: hetsim.ResCopyH2D, Kind: hetsim.OpTransfer,
						Duration: opts.Platform.Bus.TransferDuration(bpc, true),
						Label:    "h2d:boundary", Bytes: bpc, Cells: 1,
					}, lastCPU)
				}
			}
		}
	}

	res = &Result3[T]{
		Grid:     g,
		TSwitch:  opts.TSwitch,
		TShare:   opts.TShare,
		Timeline: sim.Timeline(),
	}
	if coll != nil {
		emitTimelinePhases(coll, res.Timeline)
	}
	if tr := opts.Tracer; tr != nil {
		// No EndSolve: imported events live on the simulated clock, and a
		// wall-clock solve span would pollute the analysis.
		tr.BeginSolve(trace.Meta{
			Solver: solver, Problem: p.Name,
			Rows: p.NX, Cols: p.NY * p.NZ, Fronts: planes, Clock: "sim",
		})
		tr.ImportTimeline(res.Timeline)
	}
	return res, nil
}
