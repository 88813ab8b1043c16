package problems

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestAffineAlignSelf(t *testing.T) {
	s := DefaultAffineScores()
	g, err := core.Solve(AffineAlign("ACGTACGT", "ACGTACGT", s))
	if err != nil {
		t.Fatal(err)
	}
	if got := AffineScore(g, "ACGTACGT", "ACGTACGT"); got != 16 {
		t.Errorf("self alignment = %d, want 16 (8 matches)", got)
	}
}

func TestAffineAlignSingleLongGap(t *testing.T) {
	// Affine gaps make one long gap cheaper than scattered short ones:
	// aligning "AAAA" against "AACCCCAA"... rather, against a copy with an
	// inserted run should cost Open + (k-1)*Extend, not k*Open.
	s := DefaultAffineScores()
	a := "AAAATTTT"
	b := "AAAACCCCCTTTT" // 5-base insertion
	g, err := core.Solve(AffineAlign(a, b, s))
	if err != nil {
		t.Fatal(err)
	}
	got := AffineScore(g, a, b)
	want := int32(8)*s.Match + s.Open + 4*s.Extend // 8 matches + one 5-gap
	if got != want {
		t.Errorf("score = %d, want %d", got, want)
	}
}

func TestAffineAlignEmpty(t *testing.T) {
	s := DefaultAffineScores()
	g, err := core.Solve(AffineAlign("ACG", "", s))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := AffineScore(g, "ACG", ""), s.Open+2*s.Extend; got != want {
		t.Errorf("gap-only = %d, want %d", got, want)
	}
}

func TestAffineAlignMatchesRef(t *testing.T) {
	s := DefaultAffineScores()
	a, b := workload.SimilarStrings(55, 200, workload.DNAAlphabet, 0.2)
	g, err := core.Solve(AffineAlign(a, b, s))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := AffineScore(g, a, b), AffineAlignRef(a, b, s); got != want {
		t.Errorf("framework %d != ref %d", got, want)
	}
}

func TestAffineAlignAllSolversAgree(t *testing.T) {
	s := DefaultAffineScores()
	a, b := workload.SimilarStrings(77, 80, workload.DNAAlphabet, 0.25)
	p := AffineAlign(a, b, s)
	if p.Pattern() != core.AntiDiagonal {
		t.Fatalf("pattern = %s, want Anti-diagonal", p.Pattern())
	}
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.SolveParallelContext(context.Background(), p, core.Options{NativeWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	het, err := core.SolveHetero(p, core.Options{TSwitch: 5, TShare: 9})
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := core.SolveTiledContext(context.Background(), p, 7, core.Options{NativeWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(a); i++ {
		for j := 0; j <= len(b); j++ {
			w := want.At(i, j)
			if par.At(i, j) != w || het.Grid.At(i, j) != w || tiled.At(i, j) != w {
				t.Fatalf("solvers disagree at (%d,%d)", i, j)
			}
		}
	}
}

// Property: the affine score with Extend == Open degenerates to the linear
// model, matching Needleman-Wunsch with Gap = Open.
func TestAffineDegeneratesToLinearProperty(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		a := workload.RandomString(seedA, int(seedA%15)+1, workload.DNAAlphabet)
		b := workload.RandomString(seedB, int(seedB%15)+1, workload.DNAAlphabet)
		aff := AffineScores{Match: 2, Mismatch: -1, Open: -2, Extend: -2}
		lin := AlignScores{Match: 2, Mismatch: -1, Gap: -2}
		return AffineAlignRef(a, b, aff) == NeedlemanWunschRef(a, b, lin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: affine score with cheaper extensions never loses to the linear
// model at the same open cost.
func TestAffineExtendNoWorseProperty(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		a := workload.RandomString(seedA, int(seedA%15)+1, workload.DNAAlphabet)
		b := workload.RandomString(seedB, int(seedB%15)+1, workload.DNAAlphabet)
		aff := AffineScores{Match: 2, Mismatch: -1, Open: -3, Extend: -1}
		lin := AlignScores{Match: 2, Mismatch: -1, Gap: -3}
		return AffineAlignRef(a, b, aff) >= NeedlemanWunschRef(a, b, lin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
