// Package cli builds named problem instances for the command-line tools:
// a type-erased facade over the generic problems so lddprun and lddptune
// can dispatch on a -problem flag.
package cli

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/table"
	"repro/internal/workload"
	"repro/lddp"
)

// Outcome summarizes one solve for printing: the problem's answer and
// the execution profile lddp.Result reports.
type Outcome struct {
	Answer   string
	Executed lddp.Pattern
	Transfer lddp.TransferKind
	// TSwitch and TShare are the Hetero work division; Tile is the
	// Parallel strategy's tile size (zero for the other strategies).
	TSwitch, TShare, Tile int
	// Timeline is the simulated schedule (empty for native strategies).
	Timeline lddp.Timeline
}

// Instance is a type-erased problem instance.
type Instance struct {
	Name       string
	Rows, Cols int
	Pattern    core.Pattern

	// Solve runs the instance through lddp.Solve; the options select the
	// strategy and its knobs exactly as for lddp.Solve.
	Solve func(ctx context.Context, opts ...lddp.Option) (*Outcome, error)
	// Resilient runs the unreliable-memory solver with seeded faults
	// at ratePercent per replica write, and reports the answer plus the
	// number of cells where corruption was detected.
	Resilient func(replicas, ratePercent int, seed uint64) (answer string, corrected int, err error)
	// Tune runs the §V-A parameter search.
	Tune func(opts core.Options) (*core.TuneResult, error)
}

func makeInstance[T comparable](p *core.Problem[T], answer func(*table.Grid[T]) string) *Instance {
	inst := &Instance{
		Name:    p.Name,
		Rows:    p.Rows,
		Cols:    p.Cols,
		Pattern: p.Pattern(),
	}
	inst.Solve = func(ctx context.Context, opts ...lddp.Option) (*Outcome, error) {
		r, err := lddp.Solve(ctx, p, opts...)
		if err != nil {
			return nil, err
		}
		return &Outcome{
			Answer:   answer(r.Grid),
			Executed: r.Executed,
			Transfer: r.Transfer,
			TSwitch:  r.TSwitch,
			TShare:   r.TShare,
			Tile:     r.Tile,
			Timeline: r.Timeline,
		}, nil
	}
	inst.Resilient = func(replicas, ratePercent int, seed uint64) (string, int, error) {
		rngs := map[int]*workload.RNG{}
		fault := func(replica, i, j int, v T) T {
			r, ok := rngs[replica]
			if !ok {
				r = workload.NewRNG(seed + uint64(replica)*0x9e3779b9)
				rngs[replica] = r
			}
			if r.Intn(100) < ratePercent {
				var zero T
				return zero // corrupt to the zero value
			}
			return v
		}
		g, corrected, err := core.SolveResilientContext(context.Background(), p, replicas, fault)
		if err != nil {
			return "", 0, err
		}
		return answer(g), corrected, nil
	}
	inst.Tune = func(opts core.Options) (*core.TuneResult, error) {
		return core.Tune(p, opts)
	}
	return inst
}

// ProblemNames lists the problems BuildInstance accepts, sorted.
func ProblemNames() []string {
	names := []string{"levenshtein", "lcs", "needleman-wunsch", "smith-waterman",
		"dtw", "checkerboard", "seamcarve", "dither"}
	sort.Strings(names)
	return names
}

// BuildInstance constructs a named problem at the given size with seeded
// workloads.
func BuildInstance(name string, size int, seed uint64) (*Instance, error) {
	if size < 2 {
		return nil, fmt.Errorf("cli: size %d too small", size)
	}
	switch name {
	case "levenshtein":
		a, b := workload.SimilarStrings(seed, size-1, workload.ASCIIAlphabet, 0.2)
		return makeInstance(problems.Levenshtein(a, b), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("distance=%d", problems.LevenshteinDistance(g, a, b))
		}), nil
	case "lcs":
		a, b := workload.SimilarStrings(seed, size-1, workload.DNAAlphabet, 0.3)
		return makeInstance(problems.LCS(a, b), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("lcs_length=%d", problems.LCSLength(g, a, b))
		}), nil
	case "needleman-wunsch":
		a, b := workload.SimilarStrings(seed, size-1, workload.DNAAlphabet, 0.2)
		s := problems.DefaultAlignScores()
		return makeInstance(problems.NeedlemanWunsch(a, b, s), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("global_score=%d", problems.GlobalScore(g, a, b))
		}), nil
	case "smith-waterman":
		a, b := workload.SimilarStrings(seed, size-1, workload.DNAAlphabet, 0.25)
		s := problems.DefaultAlignScores()
		return makeInstance(problems.SmithWaterman(a, b, s), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("local_best=%d", problems.LocalBestScore(g))
		}), nil
	case "dtw":
		x := workload.TimeSeries(seed, size-1, -1, 1)
		y := workload.TimeSeries(seed+1, size-1, -1, 1)
		return makeInstance(problems.DTW(x, y), func(g *table.Grid[float64]) string {
			return fmt.Sprintf("dtw_distance=%.4f", problems.DTWDistance(g, x, y))
		}), nil
	case "checkerboard":
		cost := workload.CostGrid(seed, size, size, 100)
		return makeInstance(problems.Checkerboard(cost), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("best_path=%d", problems.CheckerboardBest(g))
		}), nil
	case "seamcarve":
		energy := workload.EnergyGrid(seed, size, size)
		return makeInstance(problems.SeamCarve(energy), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("seam_cost=%d", problems.SeamCost(g))
		}), nil
	case "dither":
		img := workload.GrayImage(seed, size, size)
		return makeInstance(problems.Dither(img), func(g *table.Grid[int32]) string {
			out := problems.DitherOutput(g)
			white := 0
			for _, row := range out {
				for _, v := range row {
					if v == 255 {
						white++
					}
				}
			}
			return fmt.Sprintf("white_pixels=%d/%d", white, size*size)
		}), nil
	default:
		return nil, fmt.Errorf("cli: unknown problem %q (want one of %v)", name, ProblemNames())
	}
}
