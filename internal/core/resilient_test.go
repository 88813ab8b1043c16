package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/table"
	"repro/internal/workload"
)

// flipFault corrupts roughly `ratePercent`% of writes by XOR-ing a bit
// into the value, independently per replica, deterministically seeded.
func flipFault(seed uint64, ratePercent int) FaultFunc[int64] {
	rngs := map[int]*workload.RNG{}
	return func(replica, i, j int, v int64) int64 {
		r, ok := rngs[replica]
		if !ok {
			r = workload.NewRNG(seed + uint64(replica)*0x9e37)
			rngs[replica] = r
		}
		if r.Intn(100) < ratePercent {
			return v ^ (1 << (r.Intn(16)))
		}
		return v
	}
}

func TestSolveResilientPerfectMemory(t *testing.T) {
	p := testProblem(DepW|DepN, 20, 20)
	want, _ := Solve(p)
	for _, replicas := range []int{1, 3, 5} {
		got, corrected, err := SolveResilientContext(context.Background(), p, replicas, nil)
		if err != nil {
			t.Fatal(err)
		}
		if corrected != 0 {
			t.Errorf("replicas=%d: %d corrections with perfect memory", replicas, corrected)
		}
		if !table.EqualComparable(want, got) {
			t.Errorf("replicas=%d: resilient differs under perfect memory", replicas)
		}
	}
}

func TestSolveResilientMasksFaultsWithTripleRedundancy(t *testing.T) {
	// Triple redundancy masks any cell with at most one corrupted replica;
	// the rate is chosen so the (deterministic, seeded) injection produces
	// plenty of single faults and no double ones: at 1% per write over 900
	// cells the expected double-fault count is 900 * 3 * 0.01^2 ~ 0.27.
	p := testProblem(DepW|DepNW|DepN, 30, 30)
	want, _ := Solve(p)
	got, corrected, err := SolveResilientContext(context.Background(), p, 3, flipFault(11, 1))
	if err != nil {
		t.Fatal(err)
	}
	if corrected == 0 {
		t.Fatal("fault injector never fired; the test is vacuous")
	}
	if !table.EqualComparable(want, got) {
		t.Error("triple redundancy failed to mask 1% write faults")
	}
}

func TestSolveResilientSingleReplicaCorrupts(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN, 40, 40)
	want, _ := Solve(p)
	got, corrected, err := SolveResilientContext(context.Background(), p, 1, flipFault(11, 5))
	if err != nil {
		t.Fatal(err)
	}
	if corrected == 0 {
		t.Fatal("fault injector never fired")
	}
	if table.EqualComparable(want, got) {
		t.Error("unprotected single-replica solve should corrupt under 5% faults")
	}
}

func TestSolveResilientValidates(t *testing.T) {
	p := testProblem(DepN, 4, 4)
	if _, _, err := SolveResilientContext(context.Background(), p, 0, nil); err == nil {
		t.Error("replicas=0 should error")
	}
	bad := &Problem[int64]{Rows: 0, Cols: 1, Deps: DepN}
	if _, _, err := SolveResilientContext(context.Background(), bad, 3, nil); err == nil {
		t.Error("invalid problem should error")
	}
}

// Property: with fault rates low enough that no cell has two corrupted
// replicas, the majority always reconstructs the clean table. We force the
// premise by corrupting only replica 0.
func TestSolveResilientSingleReplicaFaultsAlwaysMasked(t *testing.T) {
	masks := AllDepMasks()
	f := func(mi, r, c uint8, seed uint64) bool {
		m := masks[int(mi)%len(masks)]
		rows := int(r%15) + 1
		cols := int(c%15) + 1
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			return false
		}
		rng := workload.NewRNG(seed)
		onlyFirst := func(replica, i, j int, v int64) int64 {
			if replica == 0 && rng.Intn(3) == 0 {
				return v ^ 0xff
			}
			return v
		}
		got, _, err := SolveResilientContext(context.Background(), p, 3, onlyFirst)
		if err != nil {
			return false
		}
		return table.EqualComparable(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The detected-fault count roughly tracks the injection rate.
func TestSolveResilientCorrectionAccounting(t *testing.T) {
	p := testProblem(DepN, 50, 50)
	_, corrected, err := SolveResilientContext(context.Background(), p, 3, flipFault(99, 10))
	if err != nil {
		t.Fatal(err)
	}
	// 2500 cells, 3 replicas, 10% per write: P(cell has >=1 fault) ~ 27%.
	if corrected < 400 || corrected > 1100 {
		t.Errorf("corrected = %d, want roughly 675 of 2500", corrected)
	}
}
