package lddp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// config is the resolved option set; options record errors instead of
// panicking and Solve reports the first one.
type config struct {
	strategy Strategy
	opts     core.Options
	tile     int
	accels   []Accelerator
	shares   []int
	err      error
}

// newConfig applies options over the defaults, stopping at the first
// option error.
func newConfig(options []Option) (*config, error) {
	// Negative TSwitch/TShare mean auto-tune in core.Options.
	cfg := &config{strategy: Auto, opts: core.Options{TSwitch: -1, TShare: -1}}
	for _, o := range options {
		o(cfg)
		if cfg.err != nil {
			return nil, cfg.err
		}
	}
	return cfg, nil
}

// Option configures a Solve call.
type Option func(*config)

// WithStrategy selects the executor; the default is Auto.
func WithStrategy(s Strategy) Option {
	return func(c *config) {
		if !s.valid() {
			c.err = fmt.Errorf("lddp: unknown strategy %d", int(s))
			return
		}
		c.strategy = s
	}
}

// WithWorkers sets the worker count of the native tile engine (the
// Parallel and Async strategies). Zero or negative selects the default
// min(GOMAXPROCS, NumCPU).
func WithWorkers(n int) Option {
	return func(c *config) { c.opts.NativeWorkers = n }
}

// WithChunk sets the cells-per-claim chunk of a solve submitted to the
// shared scheduler (Submit, SolveOn). Zero or negative selects the
// scheduler's default.
func WithChunk(n int) Option {
	return func(c *config) { c.opts.NativeChunk = n }
}

// WithTile sets the tile size of the Parallel strategy's native engine.
// Unset or non-positive selects DefaultTile for the problem's cell size.
func WithTile(n int) Option {
	return func(c *config) { c.tile = n }
}

// WithPlatform selects the simulated platform preset by name
// ("Hetero-High", "Hetero-Low", "Hetero-Phi", "Hetero-Modern") for the
// Hetero/SimCPU/SimGPU/Multi strategies.
func WithPlatform(name string) Option {
	return func(c *config) {
		p, err := PlatformByName(name)
		if err != nil {
			c.err = err
			return
		}
		c.opts.Platform = p
	}
}

// WithPlatformModel supplies a platform model directly.
func WithPlatformModel(p *Platform) Option {
	return func(c *config) { c.opts.Platform = p }
}

// WithTSwitch overrides the number of CPU-only low-work iterations of the
// heterogeneous strategies; negative (the default) auto-tunes it.
func WithTSwitch(n int) Option {
	return func(c *config) { c.opts.TSwitch = n }
}

// WithTShare overrides the CPU's per-iteration cell share of the
// heterogeneous strategies; negative (the default) auto-tunes it.
func WithTShare(n int) Option {
	return func(c *config) { c.opts.TShare = n }
}

// WithPreferInvertedL runs inverted-L problems through the genuine
// inverted-L strategy instead of the (faster) horizontal case-1 route.
func WithPreferInvertedL() Option {
	return func(c *config) { c.opts.PreferInvertedL = true }
}

// WithCollector attaches a runtime observability sink (e.g. *Metrics) to
// the solve. Nil keeps instrumentation disabled.
func WithCollector(coll Collector) Option {
	return func(c *config) { c.opts.Collector = coll }
}

// WithTracer attaches a runtime event tracer (see NewTracer) to the
// solve. Nil keeps tracing disabled. The tracer's rings must not be read
// (WriteTrace, AnalyzeTrace) until Solve has returned.
func WithTracer(t *Tracer) Option {
	return func(c *config) { c.opts.Tracer = t }
}

// WithAccelerators resolves the named accelerator models ("k20", "gt650m",
// "phi") for the Multi strategy; ordering fixes the device order after the
// host CPU.
func WithAccelerators(names ...string) Option {
	return func(c *config) {
		accels := make([]Accelerator, 0, len(names))
		for _, n := range names {
			a, err := AcceleratorByName(n)
			if err != nil {
				c.err = err
				return
			}
			accels = append(accels, a)
		}
		c.accels = accels
	}
}

// WithShares fixes the per-device column spans of the Multi strategy (CPU
// first); nil derives throughput-balanced spans.
func WithShares(shares []int) Option {
	return func(c *config) { c.shares = shares }
}

// Result is the outcome of a Solve.
type Result[T any] struct {
	// Grid holds the computed table; nil only for simulated strategies
	// asked to skip computation (not reachable through public options).
	Grid *Grid[T]

	// Strategy is the executor that ran (Auto resolved).
	Strategy Strategy
	// Pattern is the problem's Table-I pattern; Executed is the canonical
	// pattern the strategy ran after symmetry reduction (simulated
	// strategies only; otherwise equal to the canonical pattern).
	Pattern, Executed Pattern
	// Transfer is the problem's Table-II transfer requirement.
	Transfer TransferKind

	// TSwitch and TShare are the work-division parameters used by the
	// Hetero strategy (zero otherwise).
	TSwitch, TShare int
	// Tile is the tile size the Parallel strategy ran with (zero
	// otherwise).
	Tile int
	// Shares holds the Multi strategy's per-device column spans.
	Shares []int

	// SimTime is the simulated makespan of the
	// Hetero/SimCPU/SimGPU/Multi strategies (zero for native execution);
	// Timeline the corresponding schedule.
	SimTime  time.Duration
	Timeline Timeline
}

// Solve runs the problem through the selected executor. The context is
// polled at wavefront granularity by every executor; cancellation returns
// a nil result and a *Canceled error. The zero option set solves natively
// on the worker pool with auto-sized workers.
func Solve[T any](ctx context.Context, p *Problem[T], options ...Option) (*Result[T], error) {
	cfg, err := newConfig(options)
	if err != nil {
		return nil, err
	}
	strategy := cfg.strategy
	if strategy == Auto {
		strategy = Parallel
	}
	res := &Result[T]{
		Strategy: strategy,
		Pattern:  core.Classify(p.Deps),
		Transfer: core.TransferNeed(p.Deps),
	}
	res.Executed = res.Pattern
	if err := run(ctx, p, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}
