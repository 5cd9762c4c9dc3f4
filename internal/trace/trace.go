// Package trace records the virtual-time execution timeline of an
// application — stage spans with task counts — and exports it in Chrome's
// trace-event JSON format (load it in chrome://tracing or Perfetto to see
// where a run's time went across jobs and stages).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/sim"
)

// Span is one traced interval of virtual time.
type Span struct {
	// Name identifies the span ("map stage (shuffle 3)", "result stage").
	Name string
	// Category groups spans ("stage", "job", "startup").
	Category string
	// Start and End are virtual timestamps.
	Start, End sim.Time
	// Tasks is the number of tasks the span executed (0 for non-stage
	// spans).
	Tasks int
}

// Duration returns the span length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Recorder accumulates spans. The zero value is ready to use; a nil
// recorder ignores all calls, so call sites never need nil checks.
// Recorders are safe for concurrent use: phase-1 task workers may emit
// spans while the driver records stage spans.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add appends a span; no-op on a nil recorder.
func (r *Recorder) Add(s Span) {
	if r == nil {
		return
	}
	if s.End < s.Start {
		panic(fmt.Sprintf("trace: span %q ends (%v) before it starts (%v)", s.Name, s.End, s.Start))
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans in insertion order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// chromeEvent is one entry of the Chrome trace-event format ("X" =
// complete event; timestamps and durations in microseconds).
type chromeEvent struct {
	Name     string         `json:"name"`
	Category string         `json:"cat"`
	Phase    string         `json:"ph"`
	TS       float64        `json:"ts"`
	Dur      float64        `json:"dur"`
	PID      int            `json:"pid"`
	TID      int            `json:"tid"`
	Args     map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace serializes the spans as a Chrome trace-event JSON
// array. Spans are laid out on one process; overlapping spans are placed
// on separate "threads" greedily so the viewer doesn't stack them.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	events := make([]chromeEvent, 0, len(spans))
	var laneEnds []sim.Time
	for _, s := range spans {
		lane := -1
		for i, end := range laneEnds {
			if s.Start >= end {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnds)
			laneEnds = append(laneEnds, 0)
		}
		laneEnds[lane] = s.End
		ev := chromeEvent{
			Name:     s.Name,
			Category: s.Category,
			Phase:    "X",
			TS:       float64(s.Start) / 1e3,
			Dur:      float64(s.Duration()) / 1e3,
			PID:      1,
			TID:      lane + 1,
		}
		if s.Tasks > 0 {
			ev.Args = map[string]any{"tasks": s.Tasks}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
