package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own files around a layer's public functions. Spans of one
// op (one report, one cell, one tick, one request) share Op.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// recorder keeps spans in memory until the run ends. A nil recorder
// ignores every call and allocates nothing, which is how the timed mode
// runs the same driver code without tracing.
type recorder struct {
	mu    sync.Mutex
	clock *telemetry.Stopwatch
	spans []span
}

func newRecorder() *recorder {
	return &recorder{clock: telemetry.StartStopwatch()}
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(workload, name string, parent, op int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: workload, Op: op,
		StartNS: int64(r.clock.Seconds() * 1e9), EndNS: -1,
	})
	return id
}

// now reads the recorder's clock in nanoseconds (0 on a nil recorder).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(r.clock.Seconds() * 1e9)
}

// add records a span whose boundaries the caller measured with now,
// for calls that only report completion (a progress callback).
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
}

// end closes a span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	if r == nil || id == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = int64(r.clock.Seconds() * 1e9)
	return s.seconds()
}

// snapshot copies the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.EndNS >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfSeconds maps every span ID to its self time: the span's duration
// minus the part of it that its child spans cover. Children may overlap
// each other (concurrent clients under one phase span) and are clipped
// to the parent, so the cover is the union of their intervals.
func selfSeconds(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return self
}

// selfByName totals self time per span name, the "host time spent in
// each layer" table the traced run prints.
func selfByName(spans []span) map[string]float64 {
	self := selfSeconds(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// writeChromeTrace renders spans for chrome://tracing or Perfetto: one
// row (tid) per op, the span's own ID and its parent under args.
func writeChromeTrace(w io.Writer, spans []span) error {
	tr := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans))}
	for _, s := range spans {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: 1, TID: s.Op,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(tr)
	if err != nil {
		return fmt.Errorf("encode chrome trace: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
