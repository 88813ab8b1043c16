// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment is a
// named driver producing printable tables; cmd/lddpbench is the CLI front
// end and bench_test.go wraps each driver in a testing.B benchmark.
//
// Timing sweeps run the solvers in SkipCompute mode: the simulated timeline
// is provably identical with and without evaluating the recurrence (see
// TestSolveHeteroSkipCompute), and this keeps full parameter sweeps fast.
// Result *values* are validated separately: every driver with a workload
// also solves one instance for real and cross-checks the answer against the
// problem's independent reference implementation before reporting.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/trace"
)

// Config controls an experiment run.
type Config struct {
	// Quick shrinks workloads for smoke tests and CI.
	Quick bool
	// Seed feeds the workload generators.
	Seed uint64
}

// DefaultConfig returns the configuration used for the published numbers.
func DefaultConfig() Config { return Config{Seed: 20150525} } // IPDPS-W 2015

// Table is one printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Format writes the table with aligned columns.
func (t Table) Format(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered driver.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(Config) ([]Table, error)
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table I: contributing sets and patterns",
			"All 15 contributing sets mapped to their dependency patterns.", RunTable1},
		{"table2", "Table II: patterns and transfer needs",
			"Per-pattern CPU<->GPU data movement during heterogeneous execution.", RunTable2},
		{"fig7", "Figure 7: t_switch sweep (LCS 4k x 4k)",
			"Heterogeneous time vs iterations kept on the CPU in the low-work region.", RunFig7},
		{"fig8", "Figure 8: inverted-L vs horizontal case-1",
			"CPU and GPU times of both formulations of an {NW} problem.", RunFig8},
		{"fig9", "Figure 9: horizontal case-1 times",
			"CPU/GPU/Framework times across table sizes on both platforms.", RunFig9},
		{"fig10", "Figure 10: Levenshtein distance (anti-diagonal)",
			"CPU/GPU/Framework times across table sizes on both platforms.", RunFig10},
		{"fig12", "Figure 12: Floyd-Steinberg dithering (knight-move)",
			"CPU/GPU/Framework times across image sizes on both platforms.", RunFig12},
		{"fig13", "Figure 13: checkerboard problem (horizontal case-2)",
			"CPU/GPU/Framework times across table sizes on both platforms.", RunFig13},
		{"ablation-pipeline", "Ablation A1: pipelined vs synchronous transfers",
			"One-way boundary traffic with and without copy/compute overlap (§IV-C case 1).", RunAblationPipeline},
		{"ablation-pinned", "Ablation A2: pinned vs pageable boundary transfers",
			"Two-way boundary traffic through pinned and pageable memory (§IV-C case 2).", RunAblationPinned},
		{"ablation-coalesce", "Ablation A3: coalesced vs row-major layout",
			"GPU kernels under the pattern layout vs a naive row-major table (§IV-B).", RunAblationCoalesce},
		{"ablation-chunking", "Ablation A4: CPU thread-per-chunk vs thread-per-cell",
			"The CPU threading strategies of §IV-A.", RunAblationChunking},
		{"ablation-tuning", "Ablation A5: tuned vs heuristic parameters",
			"Autotuned t_switch/t_share against the model-derived defaults (§V-A).", RunAblationTuning},
		{"ablation-gpu-chunking", "Ablation A6: GPU thread-per-cell vs chunked threads",
			"The GPU half of the §IV-A threading discussion.", RunAblationGPUChunking},
		{"ext-phi", "Extension: Xeon Phi as the accelerator",
			"The paper's future-work question: the Hetero-High host paired with a modeled Xeon Phi 5110P.", RunExtPhi},
		{"ext-multi", "Extension: multiple accelerators",
			"Horizontal-pattern rows split across the CPU and up to three accelerators with water-filled shares.", RunExtMulti},
		{"ext-3d", "Extension: 3-D LDDP (three-sequence LCS)",
			"The k=3 instantiation of the paper's k>=2 problem class, over anti-diagonal planes.", RunExt3D},
		{"ext-sensitivity", "Extension: calibration sensitivity",
			"The Figure 10 ordering re-measured across a 16x range of GPU throughput calibrations.", RunExtSensitivity},
		{"ext-scaling", "Extension: scaling exponents",
			"Power-law fits T(n) = C*n^alpha to the Figure 10/13 series.", RunExtScaling},
		{"ext-modern", "Extension: modern hardware what-if",
			"The Figure 10 comparison on an EPYC + A100-class platform, a decade past the paper.", RunExtModern},
		{"ext-bottleneck", "Extension: critical-path attribution",
			"The makespan of GPU-only vs framework runs decomposed into launch, dispatch, compute and transfer time.", RunExtBottleneck},
		{"ext-energy", "Extension: modeled energy",
			"Energy of CPU-only, GPU-only and framework runs under TDP-class power draws.", RunExtEnergy},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// fd formats a duration for table cells.
func fd(d time.Duration) string { return trace.FormatDuration(d) }

// ratio formats a/b to two decimals; "-" when b is zero.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}
