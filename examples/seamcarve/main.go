// Seamcarve: content-aware image resizing's energy accumulation is the
// checkerboard recurrence (horizontal case-2) on pixel energies. This
// example computes the accumulated-energy table with the native parallel
// solver, recovers the minimum seam by walking the table backwards, and
// prints where the seam runs.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/table"
	"repro/internal/workload"
)

func main() {
	const rows, cols = 64, 120
	energy := workload.EnergyGrid(11, rows, cols)

	p := problems.SeamCarve(energy)
	fmt.Printf("seam carving a %dx%d energy map: pattern %s (case-2: %s)\n",
		rows, cols, core.Classify(p.Deps), core.TransferNeed(p.Deps))

	acc, err := core.SolveParallelContext(context.Background(), p, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	seam := recoverSeam(acc, energy)
	fmt.Printf("minimum seam cost = %d\n", problems.SeamCost(acc))
	fmt.Printf("seam column range: first row j=%d ... last row j=%d\n", seam[0], seam[rows-1])

	// Render the seam over a coarse energy preview.
	fmt.Println("\nenergy map with seam (|):")
	for i := 0; i < rows; i += 4 {
		line := make([]byte, cols)
		for j := 0; j < cols; j++ {
			switch {
			case j == seam[i]:
				line[j] = '|'
			case energy[i][j] >= 128:
				line[j] = '#'
			default:
				line[j] = '.'
			}
		}
		fmt.Printf("  %s\n", line)
	}

	// The seam's summed energy must equal the DP answer.
	var total int32
	for i, j := range seam {
		total += energy[i][j]
	}
	if total != problems.SeamCost(acc) {
		log.Fatalf("recovered seam cost %d != DP cost %d", total, problems.SeamCost(acc))
	}
	fmt.Println("\nrecovered seam cost matches the DP table")
}

// recoverSeam walks the accumulated-energy table from the cheapest cell of
// the last row upwards, always moving to the cheapest of the three parents.
func recoverSeam(acc *table.Grid[int32], energy [][]int32) []int32ColIdx {
	rows, cols := acc.Rows(), acc.Cols()
	seam := make([]int32ColIdx, rows)
	best := 0
	for j := 1; j < cols; j++ {
		if acc.At(rows-1, j) < acc.At(rows-1, best) {
			best = j
		}
	}
	seam[rows-1] = best
	for i := rows - 2; i >= 0; i-- {
		j := seam[i+1]
		bestJ := j
		for _, cand := range []int{j - 1, j, j + 1} {
			if cand >= 0 && cand < cols && acc.At(i, cand) < acc.At(i, bestJ) {
				bestJ = cand
			}
		}
		seam[i] = bestJ
	}
	return seam
}

// int32ColIdx documents that seam entries are column indices.
type int32ColIdx = int
