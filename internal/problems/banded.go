package problems

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/table"
)

// levBandInf is the absorbing value of the banded edit-distance recurrence.
const levBandInf = int32(math.MaxInt32 / 4)

// BandedLevenshtein computes the edit distance of a and b with an Ukkonen
// band of half-width band: cells with |i-j| > band are treated as
// unreachable. The result equals the true distance whenever it is at most
// band (and also requires |len(a)-len(b)| <= band for the final cell to be
// in band); otherwise it is an upper bound of at least band.
//
// Cost is O(max(len(a),len(b)) * band) instead of O(len(a)*len(b)).
func BandedLevenshtein(a, b string, band int) (int32, *table.Grid[int32], error) {
	p := Levenshtein(a, b)
	g, err := core.SolveBandedContext(context.Background(), p, band, func(i, j int) int32 { return levBandInf })
	if err != nil {
		return 0, nil, err
	}
	return g.At(len(a), len(b)), g, nil
}

// LevenshteinAdaptive doubles the band until the answer stabilizes below
// it: exact edit distance in O(n*d) time for distance d, the standard
// Ukkonen refinement loop.
func LevenshteinAdaptive(a, b string) (int32, error) {
	diff := len(a) - len(b)
	if diff < 0 {
		diff = -diff
	}
	band := diff + 1
	for {
		d, _, err := BandedLevenshtein(a, b, band)
		if err != nil {
			return 0, err
		}
		// The band is conclusive once the answer fits strictly inside it.
		if int(d) <= band {
			return d, nil
		}
		band *= 2
		if band > len(a)+len(b)+1 {
			d, _, err := BandedLevenshtein(a, b, band)
			return d, err
		}
	}
}
