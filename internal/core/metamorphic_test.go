// Metamorphic tests for the Table-I symmetry relations the solvers rely
// on: Vertical is transposed Horizontal, and mirrored-Inverted-L is
// column-mirrored Inverted-L. Each relation is checked on randomized
// instances through both the sequential oracle and a parallel executor,
// so a bug in the reduction machinery (Transposed/MirroredColumns or the
// canonicalize step that uses them) cannot hide behind a matching bug in
// one executor.
package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
)

// metaDims draws a random shape including degenerate rows/columns.
func metaDims(rng *rand.Rand) (int, int) {
	return 1 + rng.Intn(40), 1 + rng.Intn(40)
}

// TestMetamorphicVerticalIsTransposedHorizontal: for a Vertical-pattern
// problem p, solving p directly must equal solving Transposed(p) — a
// Horizontal-pattern problem — and mapping the grid back. Both Vertical
// masks ({W} and {W,NW}) are exercised.
func TestMetamorphicVerticalIsTransposedHorizontal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	masks := []core.DepMask{core.DepW, core.DepW | core.DepNW}
	for iter := 0; iter < 12; iter++ {
		m := masks[iter%len(masks)]
		rows, cols := metaDims(rng)
		seed := rng.Int63()
		p := confProblem(seed, m, rows, cols)
		if got := core.Classify(p.Deps); got != core.Vertical {
			t.Fatalf("mask %s classifies as %s, want Vertical", m, got)
		}
		tp, undo := core.Transposed(p)
		if got := core.Classify(tp.Deps); got != core.Horizontal {
			t.Fatalf("transposed mask %s classifies as %s, want Horizontal", tp.Deps, got)
		}
		direct, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		viaT, err := core.Solve(tp)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo(viaT)) {
			t.Errorf("mask=%s shape=%dx%d seed=%d: sequential Vertical != transposed Horizontal", m, rows, cols, seed)
		}
		parT, err := core.SolveParallelContext(context.Background(), tp, core.Options{NativeWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo(parT)) {
			t.Errorf("mask=%s shape=%dx%d seed=%d: parallel transposed Horizontal differs from direct Vertical", m, rows, cols, seed)
		}
	}
}

// TestMetamorphicMInvertedLIsMirroredInvertedL: for a mirrored-Inverted-L
// problem ({NE}), solving directly must equal solving the column-mirrored
// problem — an Inverted-L ({NW}) — and mirroring the grid back.
func TestMetamorphicMInvertedLIsMirroredInvertedL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 12; iter++ {
		rows, cols := metaDims(rng)
		seed := rng.Int63()
		p := confProblem(seed, core.DepNE, rows, cols)
		if got := core.Classify(p.Deps); got != core.MInvertedL {
			t.Fatalf("mask NE classifies as %s, want MInvertedL", got)
		}
		mp, undo := core.MirroredColumns(p)
		if got := core.Classify(mp.Deps); got != core.InvertedL {
			t.Fatalf("mirrored mask %s classifies as %s, want InvertedL", mp.Deps, got)
		}
		direct, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		viaM, err := core.Solve(mp)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo(viaM)) {
			t.Errorf("shape=%dx%d seed=%d: sequential mInverted-L != mirrored Inverted-L", rows, cols, seed)
		}
		parM, err := core.SolveParallelContext(context.Background(), mp, core.Options{NativeWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo(parM)) {
			t.Errorf("shape=%dx%d seed=%d: parallel mirrored Inverted-L differs from direct mInverted-L", rows, cols, seed)
		}
	}
}

// engineTiles are the tile sizes the metamorphic checks run the engine
// at: single cells, small odd tiles, and the default.
var engineTiles = []int{1, 2, 3, 7, core.DefaultTile(8)}

// TestMetamorphicAsyncSymmetry runs both Table-I symmetry relations
// through the tile engine: solving the transposed (or column-mirrored)
// problem on tiles and mapping the grid back must reproduce the direct
// sequential solve. The engine performs no canonicalization of its own,
// so this catches any disagreement between its raw-mask tile DAG — skewed
// tiles for {NE}, square tiles for its {NW} mirror — and the reduction
// machinery.
func TestMetamorphicAsyncSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 12; iter++ {
		rows, cols := metaDims(rng)
		seed := rng.Int63()
		tile := engineTiles[iter%len(engineTiles)]
		opts := core.Options{NativeWorkers: 1 + iter%4}

		// Vertical {W} vs its transposed Horizontal, both on the engine.
		p := confProblem(seed, core.DepW, rows, cols)
		direct, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		asyncDirect, err := core.SolveAsyncContext(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, asyncDirect) {
			t.Errorf("shape=%dx%d seed=%d: async Vertical differs from sequential", rows, cols, seed)
		}
		tp, undo := core.Transposed(p)
		viaT, err := core.SolveTiledContext(context.Background(), tp, tile, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo(viaT)) {
			t.Errorf("shape=%dx%d seed=%d tile=%d: engine transposed Horizontal differs from direct Vertical", rows, cols, seed, tile)
		}

		// Mirrored-Inverted-L {NE} vs its column-mirrored Inverted-L.
		pm := confProblem(seed, core.DepNE, rows, cols)
		mdirect, err := core.Solve(pm)
		if err != nil {
			t.Fatal(err)
		}
		skewed, err := core.SolveTiledContext(context.Background(), pm, tile, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(mdirect, skewed) {
			t.Errorf("shape=%dx%d seed=%d tile=%d: engine mInverted-L differs from sequential", rows, cols, seed, tile)
		}
		mp, mundo := core.MirroredColumns(pm)
		viaM, err := core.SolveTiledContext(context.Background(), mp, tile, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(mdirect, mundo(viaM)) {
			t.Errorf("shape=%dx%d seed=%d tile=%d: engine mirrored Inverted-L differs from direct mInverted-L", rows, cols, seed, tile)
		}
	}
}

// gridDigest folds a grid into an FNV-1a digest in row-major order, the
// canonical fingerprint for the determinism check below.
func gridDigest(g *table.Grid[int64]) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			v := uint64(g.At(i, j))
			for s := 0; s < 64; s += 8 {
				h ^= (v >> s) & 0xff
				h *= prime64
			}
		}
	}
	return h
}

// TestMetamorphicAsyncDeterminism: the engine's tile completion order is
// nondeterministic (whichever worker's decrement lands last readies the
// tile), but the computed table must not be — repeated solves of the
// same instance must produce bit-identical digests. Run across several
// masks, including the full mask, whose skewed tiles race on three
// counters at once, and every engine tile size.
func TestMetamorphicAsyncDeterminism(t *testing.T) {
	masks := []core.DepMask{
		core.DepW | core.DepN,
		core.DepN,
		core.DepW | core.DepNE,
		core.DepW | core.DepNW | core.DepN | core.DepNE,
	}
	for _, m := range masks {
		p := confProblem(0xd1ce, m, 67, 59)
		want, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		wantDigest := gridDigest(want)
		for rep := 0; rep < 8; rep++ {
			tile := engineTiles[rep%len(engineTiles)]
			g, err := core.SolveTiledContext(context.Background(), p, tile, core.Options{NativeWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if d := gridDigest(g); d != wantDigest {
				t.Fatalf("mask=%s rep=%d tile=%d: engine digest %#x differs from oracle %#x", m, rep, tile, d, wantDigest)
			}
		}
	}
}

// TestMetamorphicReductionsAreInvolutions: applying a reduction twice
// returns to the original problem — transposing a transposed problem (or
// mirroring a mirrored one) and solving must reproduce the direct solve.
func TestMetamorphicReductionsAreInvolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 6; iter++ {
		rows, cols := metaDims(rng)
		seed := rng.Int63()
		p := confProblem(seed, core.DepW|core.DepN, rows, cols)
		direct, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		tp, undo1 := core.Transposed(p)
		tpp, undo2 := core.Transposed(tp)
		g, err := core.Solve(tpp)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo1(undo2(g))) {
			t.Errorf("shape=%dx%d seed=%d: double transpose is not the identity", rows, cols, seed)
		}
		// Mirroring is only defined for W-free masks (a mirrored W would
		// be a forward dependency), so the mirror half uses {N,NE}.
		pm := confProblem(seed, core.DepN|core.DepNE, rows, cols)
		mdirect, err := core.Solve(pm)
		if err != nil {
			t.Fatal(err)
		}
		mp, mundo1 := core.MirroredColumns(pm)
		mpp, mundo2 := core.MirroredColumns(mp)
		mg, err := core.Solve(mpp)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(mdirect, mundo1(mundo2(mg))) {
			t.Errorf("shape=%dx%d seed=%d: double mirror is not the identity", rows, cols, seed)
		}
	}
}
