package trace

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/hetsim"
)

// DefaultLaneCap is the default per-worker ring capacity (events).
const DefaultLaneCap = 1 << 15

// Meta describes the solve a trace belongs to; it is embedded in the
// Chrome export and round-tripped by ReadChrome.
type Meta struct {
	// Solver is the executor name ("pool", "async", "sched", "hetero", ...).
	Solver string `json:"solver"`
	// Problem is the Problem.Name, may be empty.
	Problem string `json:"problem,omitempty"`
	// Pattern is the Table-I pattern; Executed the pattern actually run.
	Pattern  string `json:"pattern,omitempty"`
	Executed string `json:"executed,omitempty"`
	// Rows/Cols/Fronts/Workers describe the executed iteration space.
	Rows    int `json:"rows"`
	Cols    int `json:"cols"`
	Fronts  int `json:"fronts"`
	Workers int `json:"workers"`
	// Clock is "wall" for native executors (nanoseconds since the solve
	// started) or "sim" for imported simulated timelines (nanoseconds on
	// the simulated clock).
	Clock string `json:"clock"`
	// Lanes holds display names per lane; empty entries render as
	// "worker N".
	Lanes []string `json:"lanes,omitempty"`
	// Dropped counts events lost to ring overflow across all lanes
	// (filled in at export time).
	Dropped int64 `json:"dropped,omitempty"`

	// FleetID, Band and Phase tag a trace recorded for one block of a
	// band-sharded fleet solve with its originating solve and block
	// coordinates; empty/zero for standalone solves. Node names the
	// recording process in a stitched multi-node timeline (the node's
	// base URL, or "coordinator").
	FleetID string `json:"fleet_id,omitempty"`
	Band    int    `json:"band,omitempty"`
	Phase   int    `json:"phase,omitempty"`
	Node    string `json:"node,omitempty"`
	// EpochUnixNS is the recorder's epoch on the wall clock (UnixNano).
	// Event timestamps are relative to the epoch, so this is what lets a
	// stitcher align traces recorded on different machines onto one
	// wall-clock axis (modulo clock skew between the hosts).
	EpochUnixNS int64 `json:"epoch_unix_ns,omitempty"`
}

// Recorder is a low-overhead event recorder for the native runtime: one
// fixed-capacity ring buffer per worker, written lock-free because each
// lane is owned by exactly one goroutine during a solve. A nil *Recorder
// disables tracing; the runtime guards every emission behind one nil
// test, the same discipline as a nil Collector.
//
// Rings overwrite their oldest events when full (the newest window is
// the useful one for stall analysis); Dropped reports how many were
// lost. Events, WriteChrome and WriteSummary must only be called after
// the solve has joined — the rings are not synchronized with writers.
//
// A Recorder records one solve at a time and accumulates events across
// solves on one clock (the epoch is fixed at construction); use a fresh
// Recorder per solve for per-solve traces.
type Recorder struct {
	epoch time.Time

	mu         sync.Mutex // guards lanes growth and meta; never on the hot path
	lanes      []*Lane
	laneCap    int
	meta       Meta
	solveStart int64

	// Fleet tags are stored beside meta, not in it: BeginSolve replaces
	// meta wholesale (the scheduler owns that call), and the tags are set
	// by the server before the solve is submitted.
	fleetID     string
	band, phase int
}

// Lane is one worker's private event ring. Emissions are not
// synchronized: a Lane must be written by a single goroutine at a time.
type Lane struct {
	epoch  time.Time
	buf    []Event
	mask   uint64
	n      uint64 // total events ever emitted on this lane
	worker int32
	_      [24]byte // keep hot counters of adjacent lanes off one cache line
}

// NewRecorder returns a Recorder whose lanes hold laneCap events each;
// laneCap <= 0 selects DefaultLaneCap, other values round up to a power
// of two. Lanes are created by BeginSolve / Lane on demand.
func NewRecorder(laneCap int) *Recorder {
	if laneCap <= 0 {
		laneCap = DefaultLaneCap
	}
	capPow := 1
	for capPow < laneCap {
		capPow <<= 1
	}
	return &Recorder{epoch: time.Now(), laneCap: capPow}
}

// BeginSolve records the solve description and pre-creates the lanes for
// its workers (so the pool goroutines never race lane creation). It must
// be called before the solve starts emitting.
func (r *Recorder) BeginSolve(meta Meta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if meta.Clock == "" {
		meta.Clock = "wall"
	}
	r.meta = meta
	r.growLocked(meta.Workers)
	r.solveStart = int64(time.Since(r.epoch))
}

// EndSolve closes the solve opened by BeginSolve, emitting the KindSolve
// span on lane 0.
func (r *Recorder) EndSolve() {
	r.mu.Lock()
	start := r.solveStart
	r.growLocked(1)
	l := r.lanes[0]
	r.mu.Unlock()
	l.put(Event{
		TS: start, Dur: int64(time.Since(r.epoch)) - start,
		Front: -1, Worker: 0, Kind: KindSolve, Label: r.meta.Solver,
	})
}

// Meta returns the most recent solve description, with the recorder's
// fleet tags and wall-clock epoch merged in.
func (r *Recorder) Meta() Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.meta
	m.FleetID, m.Band, m.Phase = r.fleetID, r.band, r.phase
	m.EpochUnixNS = r.epoch.UnixNano()
	return m
}

// SetFleetTag marks every export of this recorder as belonging to block
// (band, phase) of the named fleet solve. The tags survive BeginSolve,
// which replaces the solve meta wholesale.
func (r *Recorder) SetFleetTag(fleetID string, band, phase int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fleetID, r.band, r.phase = fleetID, band, phase
}

// Epoch returns the recorder's construction time — the zero point of
// every event timestamp.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Lane returns worker w's lane, creating lanes as needed. Callers fetch
// their lane once per solve, not per event.
func (r *Recorder) Lane(w int) *Lane {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.growLocked(w + 1)
	return r.lanes[w]
}

func (r *Recorder) growLocked(n int) {
	for len(r.lanes) < n {
		r.lanes = append(r.lanes, &Lane{
			epoch:  r.epoch,
			buf:    make([]Event, r.laneCap),
			mask:   uint64(r.laneCap - 1),
			worker: int32(len(r.lanes)),
		})
	}
}

// Dropped returns the number of events lost to ring overflow.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d int64
	for _, l := range r.lanes {
		if over := int64(l.n) - int64(len(l.buf)); over > 0 {
			d += over
		}
	}
	return d
}

// Events returns every retained event across all lanes, ordered by
// timestamp. Call only after the solve has joined.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	lanes := r.lanes
	r.mu.Unlock()
	var out []Event
	for _, l := range lanes {
		out = append(out, l.events()...)
	}
	sortEvents(out)
	return out
}

func sortEvents(evs []Event) {
	// Stable order: timestamp, then lane for ties.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Worker < evs[j].Worker
	})
}

// events returns the lane's retained events in emission order.
func (l *Lane) events() []Event {
	n := l.n
	capN := uint64(len(l.buf))
	lo := uint64(0)
	if n > capN {
		lo = n - capN
	}
	out := make([]Event, 0, n-lo)
	for i := lo; i < n; i++ {
		out = append(out, l.buf[i&l.mask])
	}
	return out
}

// put appends one event; the single-owner contract makes this a plain
// slot store.
func (l *Lane) put(e Event) {
	e.Worker = l.worker
	l.buf[l.n&l.mask] = e
	l.n++
}

// now returns the lane clock: nanoseconds since the recorder epoch.
func (l *Lane) now() int64 { return int64(time.Since(l.epoch)) }

// SpanFrom records a span that started at t0 and ends now. Kept minimal
// on purpose: two monotonic clock reads and one ring store per span.
func (l *Lane) SpanFrom(k Kind, front int, a, b int64, t0 time.Time) {
	l.put(Event{
		TS: int64(t0.Sub(l.epoch)), Dur: int64(time.Since(t0)),
		A: a, B: b, Front: int32(front), Kind: k,
	})
}

// Span records a span from a timestamp previously taken with Clock.
func (l *Lane) Span(k Kind, front int, a, b, startNS int64) {
	l.put(Event{TS: startNS, Dur: l.now() - startNS, A: a, B: b, Front: int32(front), Kind: k})
}

// SpanLabel is Span carrying a (static) label.
func (l *Lane) SpanLabel(k Kind, label string, front int, a, b, startNS int64) {
	l.put(Event{TS: startNS, Dur: l.now() - startNS, A: a, B: b, Front: int32(front), Kind: k, Label: label})
}

// SpanAt records a fully explicit span — caller-supplied start and
// duration on the lane clock — for spans whose extent is derived rather
// than measured, like the fleet coordinator's halo-transfer overhead
// (block round trip minus node-reported compute).
func (l *Lane) SpanAt(k Kind, label string, front int, a, b, startNS, durNS int64) {
	l.put(Event{TS: startNS, Dur: durNS, A: a, B: b, Front: int32(front), Kind: k, Label: label})
}

// Instant records a zero-duration event at the current time.
func (l *Lane) Instant(k Kind, front int, a, b int64) {
	l.put(Event{TS: l.now(), A: a, B: b, Front: int32(front), Kind: k})
}

// Clock returns the current lane timestamp for a later Span call.
func (l *Lane) Clock() int64 { return l.now() }

// ImportTimeline converts a resolved simulated schedule into trace
// events, one lane per simulated resource, timestamps on the simulated
// clock. Compute ops import as KindPhase spans under their device:phase
// label; transfer ops as KindXferH2D/KindXferD2H classified by their DMA
// queue (or by label prefix for transfers forced onto the GPU queue by
// the DisablePipeline ablation).
func (r *Recorder) ImportTimeline(tl hetsim.Timeline) {
	r.mu.Lock()
	r.meta.Clock = "sim"
	maxRes := 0
	for _, rec := range tl.Records {
		if int(rec.Resource) > maxRes {
			maxRes = int(rec.Resource)
		}
	}
	r.growLocked(maxRes + 1)
	names := make([]string, maxRes+1)
	for i := range names {
		names[i] = tl.NameOf(hetsim.Resource(i))
	}
	r.meta.Lanes = names
	lanes := r.lanes
	r.mu.Unlock()

	for _, rec := range tl.Records {
		kind := KindPhase
		if rec.Kind == hetsim.OpTransfer {
			switch {
			case rec.Resource == hetsim.ResCopyH2D || strings.Contains(rec.Label, "h2d"):
				kind = KindXferH2D
			default:
				kind = KindXferD2H
			}
		}
		front := rec.Front
		lanes[rec.Resource].put(Event{
			TS: int64(rec.Start), Dur: int64(rec.End - rec.Start),
			A: int64(rec.Cells), B: int64(rec.Bytes),
			Front: int32(front), Kind: kind, Label: rec.Label,
		})
	}
}
