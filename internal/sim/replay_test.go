// Replay determinism: the schedule is the reproducibility contract, so
// generation must be a pure function of its config, the op log must
// round-trip byte-for-byte, and a replayed run must execute the exact
// recorded operation sequence.
package sim

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/lddp"
)

// TestGenerateDeterministic: same config, same schedule — field for
// field and byte for byte.
func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 42, Nodes: 3, Ops: 60, Kills: 1, Drains: 1, Arms: 1}
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Generate calls with one config disagree")
	}
	var ba, bb bytes.Buffer
	if err := WriteSchedule(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteSchedule(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("marshaled schedules differ byte-wise")
	}
	// Different seeds must actually differ (the generator reads its rand
	// stream, not a constant).
	if c := Generate(GenConfig{Seed: 43, Nodes: 3, Ops: 60}); reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("seeds 42 and 43 generated identical op sequences")
	}
}

// TestGenerateIncludesAsyncStrategy: schedule generation must route a
// deterministic subset of solve ops through the async executor, so the
// scenario engine exercises it under faults like every other strategy.
// The draw list is "" then the strategy table's scheduled rows in table
// order; pinning it keeps every seed's op log replaying byte-identically.
func TestGenerateIncludesAsyncStrategy(t *testing.T) {
	want := []string{""}
	for _, row := range lddp.Strategies() {
		if row.Scheduled {
			want = append(want, row.Name)
		}
	}
	if !reflect.DeepEqual(solveStrategies, want) || !reflect.DeepEqual(want, []string{"", "auto", "parallel", "async"}) {
		t.Fatalf("solve strategies %q, table's scheduled rows %q; want [\"\" auto parallel async]", solveStrategies, want)
	}
	s := Generate(GenConfig{Seed: 42, Nodes: 3, Ops: 200})
	counts := map[string]int{}
	for _, op := range s.Ops {
		if op.Kind == OpSolve {
			counts[op.Strategy]++
		}
	}
	if counts["async"] == 0 {
		t.Fatalf("200 ops at seed 42 picked no async solves (strategies: %v)", counts)
	}
	if counts["parallel"] == 0 || counts[""]+counts["auto"] == 0 {
		t.Fatalf("async must ride alongside the other strategies, not replace them (strategies: %v)", counts)
	}
}

// TestScheduleRoundTrip: save + load preserves the schedule exactly.
func TestScheduleRoundTrip(t *testing.T) {
	s := Generate(GenConfig{Seed: 7, Nodes: 2, Ops: 40, Kills: 1})
	path := filepath.Join(t.TempDir(), "oplog.json")
	if err := SaveSchedule(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("schedule did not survive the op-log round trip")
	}
}

// TestValidateRejects: the guards hand-edited op logs hit.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
	}{
		{"no nodes", Schedule{Nodes: 0}},
		{"node out of range", Schedule{Nodes: 2, Ops: []Op{{ID: 1, Kind: OpSolve, Node: 5}}}},
		{"missing id", Schedule{Nodes: 1, Ops: []Op{{Kind: OpSolve}}}},
		{"duplicate id", Schedule{Nodes: 1, Ops: []Op{{ID: 1, Kind: OpSolve}, {ID: 1, Kind: OpSolve}}}},
		{"dangling replay", Schedule{Nodes: 1, Ops: []Op{{ID: 1, Kind: OpReplay, ReplayOf: 9}}}},
		{"trace of non-fleet", Schedule{Nodes: 1, Ops: []Op{{ID: 1, Kind: OpSolve}, {ID: 2, Kind: OpTrace, ReplayOf: 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.s.Validate() == nil {
				t.Error("invalid schedule passed Validate")
			}
		})
	}
}

// TestReplayExecutesRecordedSchedule is the acceptance criterion: a
// recorded op log replays the identical operation schedule — the
// replayed run reports the very schedule it was handed, every op
// executes, and the run stays violation-free.
func TestReplayExecutesRecordedSchedule(t *testing.T) {
	recorded := Generate(GenConfig{Seed: 11, Nodes: 2, Ops: 25, Arms: -1})
	path := filepath.Join(t.TempDir(), "oplog.json")
	if err := SaveSchedule(path, recorded); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recorded, loaded) {
		t.Fatal("loaded op log differs from the recorded schedule")
	}
	rep, err := Run(context.Background(), Config{
		Schedule: loaded,
		TraceDir: t.TempDir(),
		Timeout:  90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Schedule, recorded) {
		t.Fatal("replayed run did not execute the recorded schedule verbatim")
	}
	total := 0
	for _, n := range rep.Classes {
		total += n
	}
	if total != len(recorded.Ops) {
		t.Fatalf("replay classified %d ops, schedule has %d", total, len(recorded.Ops))
	}
}
