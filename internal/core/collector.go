package core

import (
	"strings"
	"time"

	"repro/internal/hetsim"
)

// Collector receives runtime observability events from the solvers: phase
// wall times, front sizes, pool worker utilization and chunk-claim counts,
// and simulated transfer volumes split by boundary/bulk and direction.
//
// A nil Collector (the Options default) disables all instrumentation at
// zero cost: the hot paths guard every event behind one nil test that is
// hoisted out of the per-cell loops, so the uninstrumented solve executes
// the same code it did before collectors existed.
//
// Implementations must be safe for concurrent use only if shared across
// concurrent solves; within one solve, events arrive from the solving
// goroutine sequentially (worker statistics are aggregated by the pool and
// reported after the workers have joined).
type Collector interface {
	// SolveStart opens a solve; every other event belongs to the most
	// recently started solve on this collector.
	SolveStart(info SolveInfo)
	// Phase reports the wall time of one named execution phase. Native
	// solves report real elapsed time; simulated solves report the span of
	// the phase on the simulated timeline (e.g. "p1", "p2", "p3" for the
	// anti-diagonal strategy's three phases).
	Phase(name string, wall time.Duration)
	// FrontSize reports the cell count of one wavefront, in front order;
	// collectors typically aggregate these into a histogram.
	FrontSize(cells int)
	// WorkerStats reports one pool worker's totals after the pool joined.
	WorkerStats(ws WorkerStats)
	// Transfer reports one simulated CPU<->GPU data movement.
	Transfer(ts TransferStats)
	// SolveEnd closes the solve; err is nil on success, the solver's error
	// (including *Canceled) otherwise.
	SolveEnd(err error)
}

// SolveInfo describes a starting solve.
type SolveInfo struct {
	// Solver is the executor name: "pool" and "async" (the tile
	// engine), "hetero", "cpu-only", "gpu-only", "multi", "sched", ...
	Solver string
	// ID is the per-solve identifier assigned by the shared scheduler
	// (internal/sched); 0 for solves run directly through an executor.
	// It ties a solve's Collector events to its SchedEvent lifecycle and
	// to its trace.
	ID int64
	// Problem is the Problem.Name (may be empty).
	Problem string
	// Pattern is the problem's Table-I dependency pattern; Executed is the
	// pattern actually run after symmetry reduction and the inverted-L
	// preference. Empty for solvers that do not classify (sequential).
	Pattern, Executed string
	// Rows and Cols are the DP-table dimensions (canonical orientation).
	Rows, Cols int
	// Fronts is the number of wavefronts of the executed iteration space.
	Fronts int
	// Workers is the resolved worker count for native executors, 0 for
	// simulated ones.
	Workers int
}

// WorkerStats carries one pool worker's per-solve totals.
type WorkerStats struct {
	// Worker is the worker index in [0, Workers).
	Worker int
	// Chunks counts the worker's units of work: the tiles it filled on
	// the tile engine, or the chunks it claimed off the front cursors
	// (plus the fronts it ran inline as the advancing worker) on the
	// 3-D plane pool.
	Chunks int
	// Cells is the total number of cells the worker computed.
	Cells int
	// Busy is the time the worker spent inside the compute kernel.
	Busy time.Duration
	// Wall is the lifetime of the pool; Busy/Wall is the worker's
	// utilization.
	Wall time.Duration
}

// TransferStats describes one simulated CPU<->GPU transfer.
type TransferStats struct {
	// Boundary marks the per-iteration boundary-cell exchanges (pinned
	// memory, paper §IV-C case 2); false marks bulk transfers (input
	// upload, phase synchronization, result extraction).
	Boundary bool
	// ToDevice is true for host-to-device (H2D) movement, false for
	// device-to-host.
	ToDevice bool
	// Bytes is the transfer size; Cells the cell count for boundary
	// exchanges (0 for pure byte-sized bulk moves).
	Bytes, Cells int
}

// SchedEventKind classifies a scheduler lifecycle event.
type SchedEventKind uint8

const (
	// SchedEnqueued: the submission entered the admission queue.
	SchedEnqueued SchedEventKind = iota
	// SchedStarted: a worker admitted the submission; Wait carries its
	// time in queue.
	SchedStarted
	// SchedDone: the solve completed successfully.
	SchedDone
	// SchedCanceled: the solve was interrupted mid-run by its context.
	SchedCanceled
	// SchedRejected: the submission was refused admission (queue full,
	// scheduler closed, or its context expired while still queued).
	SchedRejected
	// SchedSteal: a worker switched to this solve from a different one
	// (a cross-solve steal).
	SchedSteal
)

var schedEventNames = [...]string{
	SchedEnqueued: "enqueued",
	SchedStarted:  "started",
	SchedDone:     "done",
	SchedCanceled: "canceled",
	SchedRejected: "rejected",
	SchedSteal:    "steal",
}

// String returns the stable lowercase name of the event kind.
func (k SchedEventKind) String() string {
	if int(k) < len(schedEventNames) {
		return schedEventNames[k]
	}
	return "unknown"
}

// SchedEvent is one scheduler lifecycle event for one submission.
type SchedEvent struct {
	// ID is the submission's scheduler-assigned solve ID (matches
	// SolveInfo.ID of the corresponding SolveStart).
	ID int64
	// Kind classifies the event.
	Kind SchedEventKind
	// QueueDepth is the admission-queue depth observed when the event
	// fired (after the event's own enqueue/dequeue took effect).
	QueueDepth int
	// Active is the number of concurrently executing solves at the event.
	Active int
	// Wait carries the event's elapsed-time measurement: on SchedStarted
	// it is the submission's time in queue (and likewise on synchronous
	// and queue-expiry rejections, where queued time is all there is); on
	// the terminal events of an admitted solve (SchedDone, SchedCanceled)
	// it is the full submit-to-terminal latency. Latency and queue-wait
	// histograms therefore need no extra bookkeeping beyond observing
	// Wait per Kind.
	Wait time.Duration
	// Cells is the submission's total cell count.
	Cells int64
}

// SchedCollector is optionally implemented by Collectors that want the
// shared scheduler's lifecycle events (queue depth, time-in-queue,
// cross-solve steals) in addition to the per-solve events of Collector.
// The scheduler type-asserts its configured Collector against this
// interface; plain Collectors just miss the SchedEvent stream.
type SchedCollector interface {
	Collector
	// SchedEvent reports one scheduler lifecycle event. Events for one
	// submission arrive in lifecycle order, but events of different
	// submissions interleave; implementations must synchronize.
	SchedEvent(ev SchedEvent)
}

// emitTimelinePhases reports the simulated wall-clock span of each
// execution phase of a resolved timeline. Compute-op labels follow the
// "device:phase" convention ("cpu:p1", "gpu:p2", "k20:p1", ...); ops of one
// phase across all devices group together, and the phase's wall time is the
// span from its first op start to its last op end on the simulated clock.
// The resulting phase count is exactly the paper's Table-II phase structure
// for the executed pattern (three for anti-diagonal and knight-move, two
// for inverted-L, one for horizontal).
func emitTimelinePhases(c Collector, tl hetsim.Timeline) {
	type span struct {
		start, end time.Duration
	}
	spans := map[string]*span{}
	var order []string
	for _, r := range tl.Records {
		if r.Kind != hetsim.OpCompute {
			continue
		}
		name := r.Label
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[i+1:]
		}
		s, ok := spans[name]
		if !ok {
			spans[name] = &span{start: r.Start, end: r.End}
			order = append(order, name)
			continue
		}
		if r.Start < s.start {
			s.start = r.Start
		}
		if r.End > s.end {
			s.end = r.End
		}
	}
	for _, name := range order {
		s := spans[name]
		c.Phase(name, s.end-s.start)
	}
}
