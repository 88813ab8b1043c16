package trace

// Event-level wavefront tracing. The hetsim-facing renderers in this
// package (Gantt, CSV, HTML) display *simulated* schedules; the Recorder
// below captures what the *native* runtime actually did, event by event,
// for the same kind of analysis: per-worker utilization, barrier stalls,
// and the critical path through the front DAG.

// Kind classifies a trace event.
type Kind uint8

const (
	// KindSolve spans a whole solve, emitted on lane 0 at EndSolve.
	KindSolve Kind = iota
	// KindFront spans one wavefront from barrier release to the last
	// worker's arrival, emitted by the advancing worker. A carries the
	// front's cell count. Fronts executed inline (serial cutoff) have no
	// KindFront event — their work appears as KindInline spans instead.
	KindFront
	// KindChunk spans one dynamically claimed chunk; A and B carry the
	// [lo, hi) cell range within the front.
	KindChunk
	// KindInline spans a front executed inline by the advancing worker
	// (at or below one chunk) or by the serial ramp-in loop; A and B carry
	// the [lo, hi) range, which is the whole front.
	KindInline
	// KindBarrier spans one worker's wait at the epoch barrier, from
	// arrival to gate release. Front is the front the worker arrived from.
	KindBarrier
	// KindHandoff spans a wait for a neighbour's data: a fleet band's
	// wait for its north neighbour's phase (Label "halo-wait"; A is the
	// north band's index).
	KindHandoff
	// KindPhase spans a named execution phase; Label carries the name.
	// Simulated compute ops import as KindPhase with their device:phase
	// label.
	KindPhase
	// KindXferH2D and KindXferD2H span simulated host<->device transfers;
	// A carries cells, B bytes, Label the transfer label.
	KindXferH2D
	KindXferD2H
	// KindQueue spans the time a scheduler submission spent in the
	// admission queue, from Submit to the moment a worker activated it;
	// A carries the queue depth observed at admission.
	KindQueue
	// KindSteal marks a scheduler worker switching to this solve from a
	// different one (a cross-solve steal); emitted as an instant on the
	// stealing worker's lane. A carries the solve ID.
	KindSteal
	// KindTask spans one tile of the native tile engine (the engine has
	// no fronts, so a tile is its busy unit). A and B carry a [0, cells)
	// count so Cells accounting matches the chunk convention; Front is
	// the tile's first row (display only).
	KindTask
	// KindReady is an instant sampling the tile engine's ready queue
	// after a tile finishes: A carries the queue depth, B the number of
	// finished tiles.
	KindReady
)

var kindNames = [...]string{
	KindSolve:   "solve",
	KindFront:   "front",
	KindChunk:   "chunk",
	KindInline:  "inline",
	KindBarrier: "barrier",
	KindHandoff: "handoff",
	KindPhase:   "phase",
	KindXferH2D: "h2d",
	KindXferD2H: "d2h",
	KindQueue:   "queue",
	KindSteal:   "steal",
	KindTask:    "task",
	KindReady:   "ready",
}

// String returns the stable lowercase name of the kind, used as the
// Chrome-trace category and round-tripped by ReadChrome.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts Kind.String; unknown names return ok=false.
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one recorded runtime event. Events are fixed-size values so
// the hot-path ring write is a single slot store with no allocation.
//
// TS is nanoseconds since the recorder's epoch (wall clocks) or since the
// simulated time origin (imported timelines); Dur is the span length, 0
// for instants. The meaning of A and B depends on Kind (see the Kind
// constants). Label is non-empty only for phase and transfer events and
// always references a static string, so storing it does not allocate.
type Event struct {
	TS     int64  `json:"ts_ns"`
	Dur    int64  `json:"dur_ns"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
	Front  int32  `json:"front"`
	Worker int32  `json:"worker"`
	Kind   Kind   `json:"kind"`
	Label  string `json:"label,omitempty"`
}

// End returns the event's end timestamp.
func (e Event) End() int64 { return e.TS + e.Dur }
