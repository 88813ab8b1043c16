package lddp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sched"
)

// Scheduler is the process-wide shared solve scheduler (alias of the
// internal sched type): one long-lived worker pool serving many
// concurrent solve submissions, interleaving chunks of different solves
// on the same workers with bounded-FIFO admission control. Create one
// with NewScheduler, submit problems with Submit, and Close it to drain.
//
// Use a Scheduler instead of concurrent Solve calls when many solves
// share one process: N concurrent Solve calls each spin up their own
// pool and stall it on their own narrow fronts, while a Scheduler covers
// one solve's narrow-front regions with another solve's bulk.
type Scheduler = sched.Scheduler

// SchedulerStats is a point-in-time snapshot of a Scheduler's counters.
type SchedulerStats = sched.Stats

// SchedulerWorkerLoad is one scheduler worker's cumulative load.
type SchedulerWorkerLoad = sched.WorkerLoad

// Rejected is the error of a submission that never ran: queue full,
// scheduler closed, or its context ended while still queued. A solve
// interrupted after admission returns *Canceled instead; together with a
// nil error the three cases partition every submission's outcome.
type Rejected = sched.Rejected

// Rejection causes, surfaced through Rejected (use errors.Is).
var (
	// ErrQueueFull: the admission queue was at its bound.
	ErrQueueFull = sched.ErrQueueFull
	// ErrSchedulerClosed: the scheduler had been closed.
	ErrSchedulerClosed = sched.ErrClosed
)

// SchedEvent is one scheduler lifecycle event; SchedEventKind classifies
// it. A Collector that also implements SchedCollector (as *Metrics does)
// receives the stream when attached with WithSchedulerCollector.
type (
	SchedEvent     = core.SchedEvent
	SchedEventKind = core.SchedEventKind
	SchedCollector = core.SchedCollector
)

// The scheduler lifecycle event kinds.
const (
	SchedEnqueued = core.SchedEnqueued
	SchedStarted  = core.SchedStarted
	SchedDone     = core.SchedDone
	SchedCanceled = core.SchedCanceled
	SchedRejected = core.SchedRejected
	SchedSteal    = core.SchedSteal
)

// SchedulerOption configures NewScheduler.
type SchedulerOption func(*sched.Config)

// WithSchedulerWorkers sets the shared pool size; zero or negative
// selects min(GOMAXPROCS, NumCPU).
func WithSchedulerWorkers(n int) SchedulerOption {
	return func(c *sched.Config) { c.Workers = n }
}

// WithSchedulerQueue sets the admission queue depth; a Submit that would
// exceed it is rejected with ErrQueueFull. Zero or negative selects the
// default (256).
func WithSchedulerQueue(n int) SchedulerOption {
	return func(c *sched.Config) { c.QueueBound = n }
}

// WithSchedulerMaxActive caps the solves executing concurrently; zero or
// negative selects twice the worker count.
func WithSchedulerMaxActive(n int) SchedulerOption {
	return func(c *sched.Config) { c.MaxActive = n }
}

// WithSchedulerChunk sets the default cells-per-claim chunk for
// submissions that do not set their own via WithChunk; zero or negative
// selects 512.
func WithSchedulerChunk(n int) SchedulerOption {
	return func(c *sched.Config) { c.Chunk = n }
}

// WithSchedulerCollector attaches an observability sink to every solve
// the scheduler admits. SolveStart events carry the scheduler-assigned
// SolveInfo.ID; a sink that also implements SchedCollector (e.g.
// *Metrics) additionally receives the SchedEvent lifecycle stream —
// queue depths, time-in-queue, cross-solve steals.
func WithSchedulerCollector(coll Collector) SchedulerOption {
	return func(c *sched.Config) { c.Collector = coll }
}

// WithSmallSolveBoost tunes size-aware admission: submissions of at most
// cells total cells may jump up to boost positions of the FIFO admission
// queue. Zero or negative values select the defaults (65536 cells, 8
// positions). The jump is bounded, so large solves cannot starve.
func WithSmallSolveBoost(cells int64, boost int) SchedulerOption {
	return func(c *sched.Config) {
		c.SmallCells = cells
		c.SmallBoost = boost
	}
}

// NewScheduler starts a shared solve scheduler. The zero option set uses
// all defaults; out-of-range values are reported as an error, never
// clamped or panicked on.
func NewScheduler(options ...SchedulerOption) (*Scheduler, error) {
	var cfg sched.Config
	for _, o := range options {
		o(&cfg)
	}
	return sched.New(cfg)
}

// Submission tracks one accepted scheduler submission of a typed problem.
type Submission[T any] struct {
	h      *sched.Handle
	finish func() *Grid[T]
}

// ID returns the scheduler-assigned solve ID (matches SolveInfo.ID and
// the SchedEvent stream).
func (s *Submission[T]) ID() int64 { return s.h.ID() }

// Done returns a channel closed when the submission reaches its end
// state; Wait is then non-blocking.
func (s *Submission[T]) Done() <-chan struct{} { return s.h.Done() }

// Wait blocks until the submission finishes and returns the computed
// grid. The error is nil (grid valid), *Canceled (interrupted mid-run),
// or *Rejected (never ran); on error the grid is nil.
func (s *Submission[T]) Wait() (*Grid[T], error) {
	if err := s.h.Wait(); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// Submit enqueues a problem on the shared scheduler. The per-solve
// options honored are WithChunk (claim granularity) and WithTracer (a
// per-submission Tracer recording queue wait, chunk claims, and steals);
// WithWorkers is ignored — the scheduler owns the pool — and WithCollector
// is rejected in favor of the scheduler-wide WithSchedulerCollector.
// Only the strategy table's scheduled rows (Auto, Parallel and Async)
// can run on the scheduler.
//
// An Async submission is a single front of independent worker loops over
// one native tile engine (core.NewAsyncWorkload), claimed one loop at a
// time, so scheduler workers join and leave the solve like any other
// chunked submission. Auto and Parallel submissions run as front chunks
// (core.NewWorkload).
//
// A nil error means the submission was accepted; its outcome arrives via
// the Submission. A *Rejected error means it was refused synchronously
// (queue full, scheduler closed, or the context already ended). ctx
// governs both the queue wait and the run: expiry while queued rejects
// the submission without running it, expiry mid-run cancels the solve at
// chunk granularity.
func Submit[T any](ctx context.Context, s *Scheduler, p *Problem[T], options ...Option) (*Submission[T], error) {
	cfg, err := newConfig(options)
	if err != nil {
		return nil, err
	}
	if !cfg.strategy.Info().Scheduled {
		scheduled := StrategyNames(func(row StrategyInfo) bool { return row.Scheduled })
		return nil, fmt.Errorf("lddp: the %s strategy cannot run on the shared scheduler (only %s)",
			cfg.strategy, strings.Join(scheduled, ", "))
	}
	if cfg.opts.Collector != nil {
		return nil, fmt.Errorf("lddp: per-submission collectors are not supported; attach one scheduler-wide with WithSchedulerCollector")
	}
	wl, finish, chunk, err := workload(ctx, s, p, cfg)
	if err != nil {
		return nil, err
	}
	h, err := s.Submit(ctx, wl, sched.SubmitOptions{Chunk: chunk, Tracer: cfg.opts.Tracer})
	if err != nil {
		return nil, err
	}
	return &Submission[T]{h: h, finish: finish}, nil
}

// SolveOn submits p and waits: the scheduler-routed equivalent of Solve
// with the Parallel strategy.
func SolveOn[T any](ctx context.Context, s *Scheduler, p *Problem[T], options ...Option) (*Grid[T], error) {
	sub, err := Submit(ctx, s, p, options...)
	if err != nil {
		return nil, err
	}
	return sub.Wait()
}
