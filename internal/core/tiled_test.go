package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

func TestSolveTiledMatchesSequentialAllMasks(t *testing.T) {
	for _, m := range AllDepMasks() {
		for _, tile := range []int{1, 2, 3, 7, 8, 64} {
			p := testProblem(m, 19, 27)
			want, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveTiledContext(context.Background(), p, tile, Options{NativeWorkers: 4})
			if err != nil {
				t.Fatalf("%s tile=%d: %v", m, tile, err)
			}
			if !table.EqualComparable(want, got) {
				t.Errorf("%s tile=%d: tiled solve differs from sequential", m, tile)
			}
		}
	}
}

func TestSolveTiledOversizedTile(t *testing.T) {
	p := testProblem(DepW|DepN, 10, 10)
	want, _ := Solve(p)
	got, err := SolveTiledContext(context.Background(), p, 100, Options{NativeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Error("tile larger than table differs")
	}
}

func TestSolveTiledSingleWorker(t *testing.T) {
	p := testProblem(DepW|DepNE, 33, 17)
	want, _ := Solve(p)
	got, err := SolveTiledContext(context.Background(), p, 5, Options{NativeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Error("single-worker tiled solve differs")
	}
}

func TestSolveTiledRejectsBadTile(t *testing.T) {
	p := testProblem(DepN, 4, 4)
	if _, err := SolveTiledContext(context.Background(), p, 0, Options{NativeWorkers: 2}); err == nil {
		t.Error("tile 0 should error")
	}
}

func TestSolveTiledValidates(t *testing.T) {
	if _, err := SolveTiledContext(context.Background(), &Problem[int64]{Rows: 0, Cols: 1, Deps: DepN}, 4, Options{NativeWorkers: 2}); err == nil {
		t.Error("invalid problem should error")
	}
}

// Property: tiled and sequential solves agree for random masks, dims,
// tile sizes and worker counts.
func TestSolveTiledProperty(t *testing.T) {
	masks := AllDepMasks()
	f := func(mi, r, c, tl uint8) bool {
		m := masks[int(mi)%len(masks)]
		rows := int(r%25) + 1
		cols := int(c%25) + 1
		tile := int(tl%9) + 1
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			return false
		}
		got, err := SolveTiledContext(context.Background(), p, tile, Options{NativeWorkers: int(tl%4) + 1})
		if err != nil {
			return false
		}
		return table.EqualComparable(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDefaultTile(t *testing.T) {
	t4 := DefaultTile(4)
	t8 := DefaultTile(8)
	if t4 <= t8 {
		t.Errorf("smaller cells should allow bigger tiles: %d vs %d", t4, t8)
	}
	for _, bpc := range []int{0, 4, 8, 16} {
		tile := DefaultTile(bpc)
		if tile < 8 {
			t.Errorf("DefaultTile(%d) = %d implausibly small", bpc, tile)
		}
		eff := bpc
		if eff == 0 {
			eff = 8
		}
		if tile*tile*eff > 256<<10 {
			t.Errorf("DefaultTile(%d) = %d exceeds the L2 budget", bpc, tile)
		}
		if (tile+1)*(tile+1)*eff <= 256<<10 {
			t.Errorf("DefaultTile(%d) = %d is not maximal", bpc, tile)
		}
	}
}

func TestDeriveBlockMask(t *testing.T) {
	cases := []struct {
		in       DepMask
		tileRows int
		want     DepMask
	}{
		{DepN, 8, DepN},
		{DepW | DepN, 8, DepW | DepN},
		{DepNW, 8, DepW | DepNW | DepN},
		{DepNW | DepN, 8, DepW | DepNW | DepN},
		{DepNW, 1, DepNW | DepN},
		{DepN | DepNE, 1, DepN | DepNE},
		{DepW | DepNE, 1, DepW | DepN | DepNE},
		{DepW | DepNW | DepN | DepNE, 1, DepW | DepNW | DepN | DepNE},
	}
	for _, c := range cases {
		if got := deriveBlockMask(c.in, c.tileRows); got != c.want {
			t.Errorf("deriveBlockMask(%s, %d) = %s, want %s", c.in, c.tileRows, got, c.want)
		}
	}
}

func TestDeriveBlockMaskPanicsOnTallNETiles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	deriveBlockMask(DepNE, 4)
}
