package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	r.Add(Span{Name: "a", Category: "stage", Start: 0, End: 100, Tasks: 4})
	r.Add(Span{Name: "b", Category: "stage", Start: 100, End: 250})
	r.Add(Span{Name: "j", Category: "job", Start: 0, End: 250})
	if len(r.Spans()) != 3 {
		t.Fatalf("len = %d", len(r.Spans()))
	}
	if r.Spans()[0].Duration() != 100 {
		t.Fatal("duration wrong")
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Add(Span{Name: "x", Start: 0, End: 1}) // must not panic
	if len(r.Spans()) != 0 || r.Spans() != nil {
		t.Fatal("nil recorder retained data")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestInvertedSpanPanics(t *testing.T) {
	var r Recorder
	defer func() {
		if recover() == nil {
			t.Error("inverted span did not panic")
		}
	}()
	r.Add(Span{Name: "bad", Start: 10, End: 5})
}

func TestChromeTraceFormat(t *testing.T) {
	var r Recorder
	r.Add(Span{Name: "s1", Category: "stage", Start: 1_000, End: 3_000, Tasks: 2})
	r.Add(Span{Name: "overlap", Category: "job", Start: 2_000, End: 4_000})
	r.Add(Span{Name: "s2", Category: "stage", Start: 3_000, End: 5_000})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0]["ph"] != "X" || events[0]["name"] != "s1" {
		t.Fatalf("event 0 = %v", events[0])
	}
	if events[0]["ts"].(float64) != 1.0 { // 1000 ns = 1 µs
		t.Fatalf("ts = %v, want 1µs", events[0]["ts"])
	}
	if events[0]["args"].(map[string]any)["tasks"].(float64) != 2 {
		t.Fatal("task args missing")
	}
	// Overlapping span must land on a different lane (tid).
	if events[0]["tid"] == events[1]["tid"] {
		t.Fatal("overlapping spans share a lane")
	}
	// Non-overlapping s2 reuses lane 1.
	if events[2]["tid"] != events[0]["tid"] {
		t.Fatal("non-overlapping span did not reuse the free lane")
	}
}
