package main

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/server"
)

func TestSchedulesArePureInTheSeed(t *testing.T) {
	step := 2 * time.Second
	for _, sched := range []func(int64, []float64, time.Duration) [][]arrival{uniqueSchedule, repeatSchedule} {
		a := sched(7, []float64{10, 20, 40}, step)
		b := sched(7, []float64{10, 20, 40}, step)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same seed, different schedules")
		}
		if c := sched(8, []float64{10, 20, 40}, step); reflect.DeepEqual(a, c) {
			t.Fatal("different seeds, same schedule")
		}
		for k, st := range a {
			if want := []int{20, 40, 80}[k]; len(st) != want {
				t.Errorf("step %d: %d arrivals, want %d", k, len(st), want)
			}
			for i, ar := range st {
				if ar.Step != k || ar.Due < 0 || ar.Due >= step || (i > 0 && ar.Due < st[i-1].Due) {
					t.Fatalf("step %d arrival %d: step %d due %v", k, i, ar.Step, ar.Due)
				}
			}
		}
	}
}

func TestUniqueRequestsNeverRepeat(t *testing.T) {
	seen := map[int64]bool{}
	for _, st := range uniqueSchedule(3, []float64{15, 30, 300}, 2*time.Second) {
		for _, a := range st {
			if seen[a.Req.Workload.Seed] {
				t.Fatalf("workload seed %d repeats", a.Req.Workload.Seed)
			}
			seen[a.Req.Workload.Seed] = true
			r, c := a.Req.Rows, a.Req.Cols
			if r < minSide || r > maxSide || c < minSide || c > maxSide || !a.Req.ReturnCells {
				t.Fatalf("request %dx%d return_cells=%v", r, c, a.Req.ReturnCells)
			}
			if inline := a.Req.Workload.Cells != nil; inline != (a.Req.Workload.Kind == "cost" && r*c <= server.DefaultMaxInlineCells) {
				t.Fatalf("%s %dx%d: inline cells %v", a.Req.Workload.Kind, r, c, inline)
			}
		}
	}
}

func TestPhasesAlternateR1AndR2(t *testing.T) {
	steps := uniqueSchedule(5, []float64{15, 30, 300}, 3*time.Second)
	ph := phases(steps)
	if len(ph) != 2 || len(ph[0]) != len(steps[0])+len(steps[1]) || len(ph[1]) != len(steps[2]) {
		t.Fatalf("phase sizes %d/%d", len(ph[0]), len(ph[1]))
	}
	for i, a := range ph[0] {
		if a.Step > 1 || int(a.Due/segment)%2 != a.Step {
			t.Fatalf("arrival %d of step %d due %v sits in the other step's segment", i, a.Step, a.Due)
		}
		if i > 0 && a.Due < ph[0][i-1].Due {
			t.Fatal("interleaved phase out of due order")
		}
	}
}

func TestZipfCounts(t *testing.T) {
	c := zipfCounts(1000, 32, 1.1)
	total := 0
	for i, n := range c {
		total += n
		if i > 0 && n > c[i-1] {
			t.Errorf("rank %d drawn %d times, more than rank %d", i, n, i-1)
		}
	}
	if total != 1000 {
		t.Errorf("%d draws, want 1000", total)
	}
}

func TestInterleaveIsAPermutation(t *testing.T) {
	order := interleave(rand.New(rand.NewSource(1)), 97)
	got := append([]int(nil), order...)
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("interleave is not a permutation: %v", order)
		}
	}
}
