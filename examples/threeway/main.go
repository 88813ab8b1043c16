// Threeway: the k = 3 instantiation of the LDDP-Plus class — the paper
// defines the class for k >= 2 but treats only k = 2. Computes the longest
// common subsequence of three DNA sequences over anti-diagonal planes,
// sequentially, with real goroutines, and on the simulated heterogeneous
// platform.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	const n = 96
	a, b := workload.SimilarStrings(1, n, workload.DNAAlphabet, 0.2)
	c, _ := workload.SimilarStrings(2, n, workload.DNAAlphabet, 0.25)

	p := problems.LCS3(a, b, c)
	fmt.Printf("three-sequence LCS over a %dx%dx%d box (%d cells, %d planes)\n\n",
		p.NX, p.NY, p.NZ, p.NX*p.NY*p.NZ, p.Planes())

	seq, err := core.Solve3(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential:  |LCS3| = %d\n", problems.LCS3Length(seq, a, b, c))

	par, err := core.SolveParallel3Context(context.Background(), p, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel:    |LCS3| = %d\n", problems.LCS3Length(par, a, b, c))

	het, err := core.SolveHetero3(p, core.Options{TSwitch: -1, TShare: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("framework:   |LCS3| = %d  (simulated %s, t_switch=%d plane-band=%d layers)\n\n",
		problems.LCS3Length(het.Grid, a, b, c),
		trace.FormatDuration(het.Duration()), het.TSwitch, het.TShare)

	// Pairwise sanity: the three-way LCS can never exceed a pairwise one.
	gab, _ := core.Solve(problems.LCS(a, b))
	fmt.Printf("pairwise |LCS(a,b)| = %d >= |LCS3| as required\n",
		problems.LCSLength(gab, a, b))

	fmt.Println("\nsimulated schedule:")
	fmt.Printf("  %s\n", trace.StatsLine(het.Timeline))
}
