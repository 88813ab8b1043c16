package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze(Meta{Solver: "pool"}, nil, 0)
	if rep.Events != 0 || rep.Critical.Kind != "none" {
		t.Fatalf("empty analysis = %+v", rep)
	}
	var buf bytes.Buffer
	if err := WriteSummary(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no events)") {
		t.Errorf("summary of an empty trace: %q", buf.String())
	}
}

func TestAnalyzeUtilization(t *testing.T) {
	// Worker 0 busy for the whole [0, 100] span, worker 1 for half of it.
	events := []Event{
		{TS: 0, Dur: 100, Kind: KindChunk, Worker: 0, Front: 0, A: 0, B: 10},
		{TS: 0, Dur: 50, Kind: KindChunk, Worker: 1, Front: 0, A: 10, B: 30},
	}
	rep := Analyze(Meta{Workers: 2}, events, 10)
	if len(rep.Workers) != 2 {
		t.Fatalf("lanes = %d, want 2", len(rep.Workers))
	}
	w0, w1 := rep.Workers[0], rep.Workers[1]
	if w0.Util < 0.99 || w0.Cells != 10 || w0.Chunks != 1 {
		t.Errorf("worker 0 = %+v, want full utilization, 10 cells", w0)
	}
	if w1.Util < 0.49 || w1.Util > 0.51 || w1.Cells != 20 {
		t.Errorf("worker 1 = %+v, want ~50%% utilization, 20 cells", w1)
	}
	// Bucketed timeline: worker 1's second half must be idle.
	if rep.Util[1][2] < 0.99 || rep.Util[1][7] > 0.01 {
		t.Errorf("worker 1 timeline = %v, want busy first half, idle second", rep.Util[1])
	}
}

func TestAnalyzeBarrierStall(t *testing.T) {
	events := []Event{
		{TS: 0, Dur: 80, Kind: KindChunk, Worker: 0, Front: 0},
		{TS: 0, Dur: 20, Kind: KindChunk, Worker: 1, Front: 0},
		{TS: 20, Dur: 60, Kind: KindBarrier, Worker: 1, Front: 0},
		{TS: 0, Dur: 85, Kind: KindFront, Worker: 0, Front: 0, A: 100},
		{TS: 85, Dur: 10, Kind: KindChunk, Worker: 0, Front: 1},
		{TS: 85, Dur: 10, Kind: KindChunk, Worker: 1, Front: 1},
	}
	rep := Analyze(Meta{Workers: 2}, events, 0)
	st := rep.Stall
	if st.BarrierNS != 60 || st.FrontsWithStall != 1 {
		t.Fatalf("stall = %+v, want 60ns over 1 front", st)
	}
	if len(st.Top) != 1 || st.Top[0].Front != 0 || st.Top[0].Waiters != 1 || st.Top[0].WallNS != 85 {
		t.Fatalf("top stalls = %+v", st.Top)
	}
}

func TestAnalyzeFrontChainCritical(t *testing.T) {
	// Two fronts; front 0's longest chunk is 70 of a 100 wall (30 overhead),
	// front 1's is 40 of 50.
	events := []Event{
		{TS: 0, Dur: 70, Kind: KindChunk, Worker: 0, Front: 0},
		{TS: 0, Dur: 40, Kind: KindChunk, Worker: 1, Front: 0},
		{TS: 0, Dur: 100, Kind: KindFront, Worker: 0, Front: 0},
		{TS: 100, Dur: 40, Kind: KindChunk, Worker: 1, Front: 1},
		{TS: 100, Dur: 50, Kind: KindFront, Worker: 0, Front: 1},
	}
	rep := Analyze(Meta{}, events, 0)
	cr := rep.Critical
	if cr.Kind != "front-chain" || cr.Steps != 2 {
		t.Fatalf("critical = %+v, want 2-step front-chain", cr)
	}
	if cr.ComputeNS != 70+40 || cr.StallNS != 30+10 {
		t.Errorf("critical compute=%d stall=%d, want 110/40", cr.ComputeNS, cr.StallNS)
	}
	if len(cr.Top) == 0 || cr.Top[0].Front != 0 || cr.Top[0].StallNS != 30 {
		t.Errorf("top steps = %+v, want front 0 first (30ns overhead)", cr.Top)
	}
}

func TestAnalyzeSerialOnly(t *testing.T) {
	events := []Event{
		{TS: 0, Dur: 10, Kind: KindInline, Worker: 0, Front: 0, B: 4},
		{TS: 10, Dur: 10, Kind: KindInline, Worker: 0, Front: 1, B: 4},
	}
	rep := Analyze(Meta{}, events, 0)
	if rep.Critical.Kind != "serial" || rep.Critical.InlineNS != 20 {
		t.Fatalf("critical = %+v, want serial with 20ns inline", rep.Critical)
	}
}

func TestSummaryRendersSections(t *testing.T) {
	events := []Event{
		{TS: 0, Dur: 70, Kind: KindChunk, Worker: 0, Front: 0, B: 64},
		{TS: 70, Dur: 30, Kind: KindBarrier, Worker: 0, Front: 0},
		{TS: 0, Dur: 100, Kind: KindFront, Worker: 1, Front: 0},
	}
	rep := Analyze(Meta{Solver: "pool", Problem: "t", Rows: 8, Cols: 8, Workers: 2}, events, 12)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"solver=pool", "utilization", "stalls:", "critical path"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
