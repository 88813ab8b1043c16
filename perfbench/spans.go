package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent is the index of the enclosing span
// (-1 for a root); ID names the request or solve the span belongs to.
type Span struct {
	Name       string
	Start, End time.Time
	Parent     int
	ID         int64
}

// Spans keeps a run's spans in memory. A nil *Spans records nothing, so
// untraced runs pay one nil check per call site.
type Spans struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newSpans() *Spans { return &Spans{epoch: time.Now()} }

// Add records a finished span and returns its index (-1 when s is nil).
func (s *Spans) Add(name string, id int64, parent int, start, end time.Time) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, Span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return len(s.spans) - 1
}

// Reserve adds a root span whose end is filled in by Finish; children
// recorded in between can name it as their parent.
func (s *Spans) Reserve(name string, id int64, start time.Time) int {
	return s.Add(name, id, -1, start, start)
}

// Finish sets the end of a span made by Reserve.
func (s *Spans) Finish(i int, end time.Time) {
	if s == nil || i < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans[i].End = end
}

// Total sums the durations of the spans named name.
func (s *Spans) Total(name string) time.Duration {
	var d time.Duration
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.spans {
		if sp.Name == name {
			d += sp.End.Sub(sp.Start)
		}
	}
	return d
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes the spans as Chrome trace-event JSON (Perfetto
// loads it). Each request or solve ID gets its own track, so a
// request's layer spans nest on one row.
func (s *Spans) WriteChrome(path string) error {
	s.mu.Lock()
	events := make([]chromeEvent, 0, len(s.spans))
	for i, sp := range s.spans {
		events = append(events, chromeEvent{
			Name: sp.Name, Ph: "X",
			Ts:  float64(sp.Start.Sub(s.epoch).Nanoseconds()) / 1e3,
			Dur: float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: int(sp.ID % (1 << 30)),
			Args: map[string]any{"span": i, "parent": sp.Parent, "id": sp.ID},
		})
	}
	s.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
