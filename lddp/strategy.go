package lddp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
)

// Strategy selects the executor Solve runs a problem through. Every
// strategy is one row of the strategy table in this file: its name is
// the spelling ParseStrategy, the lddpd wire API and lddprun -solver
// accept, and its row says where it may run and which options it honors.
type Strategy int

const (
	// Auto selects the native tile engine (Parallel), the fastest way to
	// actually compute a table on the host.
	Auto Strategy = iota
	// Sequential runs the row-major reference solver.
	Sequential
	// Parallel runs the native tile engine: tile-granular dataflow with
	// per-tile dependency counters.
	Parallel
	// Hetero runs the paper's heterogeneous CPU+GPU framework on the
	// simulated platform (real cell values, simulated timing).
	Hetero
	// SimCPU runs the simulated multicore-CPU baseline.
	SimCPU
	// SimGPU runs the simulated pure-GPU baseline.
	SimGPU
	// Multi runs the multi-accelerator extension (horizontal-pattern
	// problems; requires WithAccelerators).
	Multi
	// Async runs the native tile engine under its own name; on the shared
	// scheduler it runs as engine worker loops rather than front chunks.
	Async
)

// StrategyInfo is one row of the strategy table.
type StrategyInfo struct {
	Strategy Strategy
	// Name is the strategy's one spelling: String, ParseStrategy, the
	// wire API and lddprun -solver all use it.
	Name string
	// Simulated strategies run on the simulated heterogeneous platform
	// (real cell values, simulated timing); the rest run natively.
	Simulated bool
	// Scheduled strategies may run on the shared Scheduler, and so over
	// the lddpd wire API.
	Scheduled bool
	// Workers, Chunk and Tile record whether the strategy honors
	// WithWorkers, WithChunk and WithTile. WithChunk applies on the
	// shared scheduler only, WithTile to native solves only.
	Workers, Chunk, Tile bool
}

// strategies is the strategy table, indexed by Strategy. It is the one
// place strategies are listed; every other layer reads it.
var strategies = [...]StrategyInfo{
	{Strategy: Auto, Name: "auto", Scheduled: true, Workers: true, Chunk: true, Tile: true},
	{Strategy: Sequential, Name: "sequential"},
	{Strategy: Parallel, Name: "parallel", Scheduled: true, Workers: true, Chunk: true, Tile: true},
	{Strategy: Hetero, Name: "hetero", Simulated: true},
	{Strategy: SimCPU, Name: "sim-cpu", Simulated: true},
	{Strategy: SimGPU, Name: "sim-gpu", Simulated: true},
	{Strategy: Multi, Name: "multi", Simulated: true},
	{Strategy: Async, Name: "async", Scheduled: true, Workers: true},
}

// Strategies returns the strategy table in Strategy order.
func Strategies() []StrategyInfo {
	return append([]StrategyInfo(nil), strategies[:]...)
}

func (s Strategy) valid() bool { return s >= 0 && int(s) < len(strategies) }

// Info returns the strategy's table row; the zero row for a value
// outside the table.
func (s Strategy) Info() StrategyInfo {
	if !s.valid() {
		return StrategyInfo{Strategy: s}
	}
	return strategies[s]
}

func (s Strategy) String() string {
	if !s.valid() {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategies[s].Name
}

// ParseStrategy resolves a strategy by its table name, the inverse of
// Strategy.String.
func ParseStrategy(name string) (Strategy, error) {
	for _, row := range strategies {
		if row.Name == name {
			return row.Strategy, nil
		}
	}
	all := StrategyNames(func(StrategyInfo) bool { return true })
	return 0, fmt.Errorf("lddp: unknown strategy %q (want %s)", name, strings.Join(all, ", "))
}

// StrategyNames returns the names of the table rows keep selects, in
// table order.
func StrategyNames(keep func(StrategyInfo) bool) []string {
	var names []string
	for _, row := range strategies {
		if keep(row) {
			names = append(names, row.Name)
		}
	}
	return names
}

// run is the one switch from a Strategy to its internal/core executor;
// Go generics keep the typed calls out of the table rows. It fills res,
// whose Strategy is already resolved (never Auto).
func run[T any](ctx context.Context, p *Problem[T], cfg *config, res *Result[T]) (err error) {
	switch res.Strategy {
	case Sequential:
		res.Grid, err = core.SolveContext(ctx, p)
	case Parallel:
		res.Tile = cfg.tile
		if res.Tile <= 0 {
			res.Tile = core.DefaultTile(p.BytesPerCell)
		}
		res.Grid, err = core.SolveTiledContext(ctx, p, res.Tile, cfg.opts)
	case Async:
		res.Grid, err = core.SolveAsyncContext(ctx, p, cfg.opts)
	case Hetero, SimCPU, SimGPU:
		solve := core.SolveHeteroContext[T]
		switch res.Strategy {
		case SimCPU:
			solve = core.SolveCPUOnlyContext[T]
		case SimGPU:
			solve = core.SolveGPUOnlyContext[T]
		}
		r, err := solve(ctx, p, cfg.opts)
		if err != nil {
			return err
		}
		res.Grid = r.Grid
		res.Executed = r.Executed
		res.TSwitch, res.TShare = r.TSwitch, r.TShare
		res.SimTime = r.Time
		res.Timeline = r.Timeline
	case Multi:
		if len(cfg.accels) == 0 {
			return fmt.Errorf("lddp: the Multi strategy requires WithAccelerators")
		}
		r, err := core.SolveHeteroMultiContext(ctx, p, cfg.opts, cfg.accels, cfg.shares)
		if err != nil {
			return err
		}
		res.Grid = r.Grid
		res.Executed = Horizontal
		res.Shares = r.Shares
		res.SimTime = r.Timeline.Makespan()
		res.Timeline = r.Timeline
	default:
		return fmt.Errorf("lddp: unknown strategy %d", int(res.Strategy))
	}
	return err
}

// workload builds the shared-scheduler workload of a scheduled strategy
// (see Submit) and the claim chunk to submit it with.
func workload[T any](ctx context.Context, s *Scheduler, p *Problem[T], cfg *config) (*core.Workload, func() *Grid[T], int, error) {
	if cfg.strategy != Async {
		wl, finish, err := core.NewWorkload(p, cfg.opts)
		return wl, finish, cfg.opts.NativeChunk, err
	}
	// The async workload's "cells" are whole worker loops; cap them at
	// the scheduler's pool size and claim them one at a time.
	if w := s.Config().Workers; cfg.opts.NativeWorkers <= 0 || cfg.opts.NativeWorkers > w {
		cfg.opts.NativeWorkers = w
	}
	wl, finish, err := core.NewAsyncWorkload(ctx, p, cfg.opts)
	return wl, finish, 1, err
}
