package problems

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestLCS3Known(t *testing.T) {
	cases := []struct {
		a, b, c string
		want    int32
	}{
		{"abcd", "abcd", "abcd", 4},
		{"abc", "def", "ghi", 0},
		{"", "abc", "abc", 0},
		{"axbyc", "aybzc", "azbxc", 3}, // common "abc"
		{"AGGT12", "12TXAYB", "12XBA", 2},
	}
	for _, cse := range cases {
		g, err := core.Solve3(LCS3(cse.a, cse.b, cse.c))
		if err != nil {
			t.Fatal(err)
		}
		if got := LCS3Length(g, cse.a, cse.b, cse.c); got != cse.want {
			t.Errorf("LCS3(%q,%q,%q) = %d, want %d", cse.a, cse.b, cse.c, got, cse.want)
		}
		if got := LCS3Ref(cse.a, cse.b, cse.c); got != cse.want {
			t.Errorf("ref LCS3(%q,%q,%q) = %d, want %d", cse.a, cse.b, cse.c, got, cse.want)
		}
	}
}

func TestLCS3AllSolversAgree(t *testing.T) {
	a, _ := workload.SimilarStrings(1, 24, workload.DNAAlphabet, 0.3)
	_, b := workload.SimilarStrings(2, 22, workload.DNAAlphabet, 0.3)
	c := workload.RandomString(3, 20, workload.DNAAlphabet)
	p := LCS3(a, b, c)
	want, err := core.Solve3(p)
	if err != nil {
		t.Fatal(err)
	}
	ref := LCS3Ref(a, b, c)
	if got := LCS3Length(want, a, b, c); got != ref {
		t.Fatalf("sequential %d != ref %d", got, ref)
	}
	par, err := core.SolveParallel3Context(context.Background(), p, core.Options{NativeWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	het, err := core.SolveHetero3(p, core.Options{TSwitch: -1, TShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	if LCS3Length(par, a, b, c) != ref || LCS3Length(het.Grid, a, b, c) != ref {
		t.Error("parallel or hetero 3-D solve differs from reference")
	}
}

// Property: three-way LCS is bounded by every pairwise LCS and achieves
// the full length on identical strings.
func TestLCS3BoundsProperty(t *testing.T) {
	f := func(sa, sb, sc uint64) bool {
		a := workload.RandomString(sa, int(sa%12)+1, "AB")
		b := workload.RandomString(sb, int(sb%12)+1, "AB")
		c := workload.RandomString(sc, int(sc%12)+1, "AB")
		l3 := LCS3Ref(a, b, c)
		if l3 < 0 {
			return false
		}
		if l3 > LCSRef(a, b) || l3 > LCSRef(b, c) || l3 > LCSRef(a, c) {
			return false
		}
		return LCS3Ref(a, a, a) == int32(len(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
