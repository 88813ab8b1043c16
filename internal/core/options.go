package core

import (
	"fmt"

	"repro/internal/hetsim"
	"repro/internal/table"
	"repro/internal/trace"
)

// Options configures the heterogeneous solver and the simulated baselines.
// The zero value selects the Hetero-High platform, auto-tuned parameters,
// the pattern's coalescing-friendly layout, and all of the paper's
// optimizations enabled.
type Options struct {
	// Platform is the simulated CPU+GPU node. Nil selects Hetero-High.
	Platform *hetsim.Platform

	// TSwitch is the number of low-work iterations handled entirely by the
	// CPU at the start and end of grow-shrink patterns (paper §III, §V-A).
	// Negative selects the model-derived default (DefaultTSwitch).
	TSwitch int

	// TShare is the number of cells per iteration assigned to the CPU in
	// the high-work region (paper §III, §V-A). Negative selects the
	// model-derived default (DefaultTShare). Zero disables CPU sharing.
	TShare int

	// Layout overrides the DP-table memory layout. Nil selects the executed
	// pattern's coalescing-friendly layout (paper §IV-B); choosing a
	// mismatched layout makes GPU kernels uncoalesced and CPU fronts
	// strided, which is the coalescing ablation.
	Layout table.Layout

	// PreferInvertedL forces contributing sets that classify as Inverted-L
	// to run the genuine inverted-L strategy. By default the framework
	// solves them with horizontal case-1, which §V-B shows is faster
	// ("uniformity ... and coalescing-friendly layout makes the horizontal
	// pattern a better choice").
	PreferInvertedL bool

	// DisablePipeline places boundary transfers on the GPU's own queue
	// instead of the DMA engines, modeling synchronous default-stream
	// copies: the copy/compute overlap of paper §IV-C case 1 is lost.
	DisablePipeline bool

	// UsePageable routes per-iteration boundary transfers through pageable
	// instead of pinned memory, the ablation for paper §IV-C case 2.
	UsePageable bool

	// CPUThreadPerCell spawns one task per cell on the CPU instead of
	// chunking, the rejected strategy of paper §IV-A.
	CPUThreadPerCell bool

	// SkipCompute runs only the timing model without evaluating the
	// recurrence; Result.Grid is nil. The autotuner uses this to sweep
	// parameters quickly.
	SkipCompute bool

	// NativeWorkers is the worker count of the native tile engine
	// (SolveParallelContext, SolveTiledContext, SolveAsyncContext, and
	// the loop count of NewAsyncWorkload) and of the 3-D plane pool
	// (SolveParallel3Context). Zero or negative selects the default
	// min(runtime.GOMAXPROCS(0), runtime.NumCPU()): the engines are
	// compute-bound, so workers beyond the physical cores add nothing.
	// The tile engine caps the count at its number of tiles.
	NativeWorkers int

	// NativeChunk is the number of cells claimed per chunk where work is
	// claimed in chunks: by the shared scheduler's workers on front
	// workloads (NewWorkload), and by the 3-D plane pool, where it
	// doubles as the serial cutoff below which a plane runs inline. The
	// tile engine does not use it. Zero or negative selects the default
	// (512).
	NativeChunk int

	// Collector receives runtime observability events (phase wall times,
	// front-size histogram, pool worker utilization and chunk claims,
	// simulated transfer volumes). Nil — the default — disables all
	// instrumentation at zero overhead.
	Collector Collector

	// Tracer records per-event runtime traces (front begin/end, chunk
	// claims, barrier waits, band handoffs, simulated transfers) into
	// per-worker ring buffers for Perfetto export and stall analysis.
	// Nil — the default — disables tracing; the hot paths guard every
	// emission behind one nil test, like Collector.
	Tracer *trace.Recorder
}

// Native-runtime knob ceilings enforced by Validate. Values past these are
// configuration mistakes, not tuning choices: no host has 2^10 physical
// cores to keep busy, and a chunk past 2^26 cells stops being a chunk.
const (
	MaxNativeWorkers = 1 << 10
	MaxNativeChunk   = 1 << 26
)

// Validate checks the native runtime knobs. Zero and negative values are
// legal (they select the documented defaults, matching the rest of the
// Options convention); values beyond the Max ceilings return an error.
// The simulated-platform knobs (TSwitch, TShare) are clamped rather than
// validated — see the range note at the bottom of this file.
func (o Options) Validate() error {
	if o.NativeWorkers > MaxNativeWorkers {
		return fmt.Errorf("core: NativeWorkers %d exceeds limit %d", o.NativeWorkers, MaxNativeWorkers)
	}
	if o.NativeChunk > MaxNativeChunk {
		return fmt.Errorf("core: NativeChunk %d exceeds limit %d", o.NativeChunk, MaxNativeChunk)
	}
	return nil
}

// withDefaults resolves nil/auto fields against a problem's executed
// wavefront space.
func (o Options) withDefaults(w Wavefronts, transfer TransferKind) Options {
	if o.Platform == nil {
		o.Platform = hetsim.HeteroHigh()
	}
	if o.TSwitch < 0 {
		o.TSwitch = DefaultTSwitch(o.Platform, w)
	}
	if o.TShare < 0 {
		o.TShare = DefaultTShare(o.Platform, w, transfer)
	}
	if o.Layout == nil {
		o.Layout = w.PreferredLayout()
	}
	return o
}

// Note on ranges: TSwitch and TShare are clamped, not rejected — a TSwitch
// past half the fronts degenerates to the CPU handling everything, and a
// TShare past the front width simply assigns whole fronts to the CPU. The
// tuner relies on sweeping these freely.
