package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// mk builds a closed span with times in milliseconds.
func mk(id, parent int, name string, op int, startMS, endMS int64) span {
	return span{ID: id, Parent: parent, Name: name, Workload: "w", Op: op,
		StartNS: startMS * 1e6, EndNS: endMS * 1e6}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		mk(1, 0, "root", 0, 0, 100),
		mk(2, 1, "a", 0, 10, 40), // overlaps b on [30,40]
		mk(3, 1, "b", 0, 30, 60),
		mk(4, 1, "c", 0, 90, 120), // sticks out of the parent: clipped to [90,100]
		mk(5, 3, "leaf", 0, 35, 45),
		mk(6, 1, "inside-a", 0, 15, 20), // wholly covered by a: adds nothing
	}
	self := selfSeconds(spans)
	want := map[int]float64{
		1: 0.100 - (0.050 + 0.010), // children cover [10,60] and [90,100]
		2: 0.030,
		3: 0.030 - 0.010,
		4: 0.030,
		5: 0.010,
		6: 0.005,
	}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if math.Abs(byName["root"]-0.040) > 1e-12 {
		t.Errorf("selfByName[root] = %v, want 0.040", byName["root"])
	}
}

func TestRecorderLinksParentsAndOps(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("w", "root", 0, 7)
	child := rec.begin("w", "child", root, 7)
	if d := rec.end(child); d < 0 {
		t.Errorf("negative child duration %v", d)
	}
	open := rec.begin("w", "never closed", root, 8)
	rec.add(span{Parent: root, Name: "added", Workload: "w", Op: 9, StartNS: 1, EndNS: 2})
	rec.end(root)

	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot has %d spans, want 3 (the open span %d is left out)", len(spans), open)
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != byName["root"].ID || byName["added"].Parent != byName["root"].ID {
		t.Errorf("parent links broken: %+v", spans)
	}
	if byName["root"].Op != 7 || byName["child"].Op != 7 || byName["added"].Op != 9 {
		t.Errorf("op identifiers broken: %+v", spans)
	}
	if byName["added"].ID == 0 || byName["added"].ID == byName["child"].ID {
		t.Errorf("added span has no ID of its own: %+v", byName["added"])
	}
	if r, c := byName["root"], byName["child"]; c.StartNS < r.StartNS || c.EndNS > r.EndNS {
		t.Errorf("child [%d,%d] not inside root [%d,%d]", c.StartNS, c.EndNS, r.StartNS, r.EndNS)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	spans := []span{
		mk(1, 0, "root", 3, 0, 100),
		{ID: 2, Parent: 1, Name: "odd ns", Workload: "w", Op: 4, StartNS: 1_234_567, EndNS: 7_654_321},
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var back []span
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 {
			t.Errorf("event %+v is not a complete event of process 1", ev)
		}
		start := int64(math.Round(ev.TS * 1e3))
		back = append(back, span{
			ID: ev.Args["id"], Parent: ev.Args["parent"], Name: ev.Name, Workload: ev.Cat, Op: ev.TID,
			StartNS: start, EndNS: start + int64(math.Round(ev.Dur*1e3)),
		})
	}
	if !reflect.DeepEqual(back, spans) {
		t.Errorf("round trip changed the spans:\n got %+v\nwant %+v", back, spans)
	}
}

// TestTimedModeAllocatesNoSpans pins what lets the timed run share the
// drivers' code: every recorder call on a nil recorder is free.
func TestTimedModeAllocatesNoSpans(t *testing.T) {
	var rec *recorder
	allocs := testing.AllocsPerRun(1000, func() {
		id := rec.begin("w", "span", 0, 1)
		rec.add(span{Name: "added"})
		if rec.now() != 0 || rec.end(id) != 0 || id != 0 {
			t.Fatal("nil recorder recorded something")
		}
	})
	if allocs != 0 {
		t.Errorf("nil recorder allocates %v objects per call", allocs)
	}
	if rec.snapshot() != nil {
		t.Error("nil recorder has spans")
	}
}

func TestSpeedometerFactor(t *testing.T) {
	m, err := newSpeedometer()
	if err != nil {
		t.Fatal(err)
	}
	m.read()
	m.read()
	if len(m.passes) != 2*calibPasses {
		t.Fatalf("%d passes after two readings, want %d", len(m.passes), 2*calibPasses)
	}
	for _, p := range m.passes {
		if p <= 0 {
			t.Fatalf("passes %v: want positive times", m.passes)
		}
	}
	// A machine a fifth slower shrinks the reported times by that much,
	// and passes that a burst slowed do not count as a slow machine.
	for _, slowdown := range []float64{1.2, 0.9, 2} {
		r := slowdown * calibReferenceSeconds
		m.passes = []float64{9, r, 3 * r, r, 2 * r, r, r, 9}
		if got := m.factor(); math.Abs(got-1/slowdown) > 1e-12 {
			t.Errorf("factor at %vx the reference pass = %v, want %v", slowdown, got, 1/slowdown)
		}
	}
	if err := m.close(); err != nil {
		t.Error(err)
	}
}

func TestQuietQuartile(t *testing.T) {
	for _, c := range []struct {
		samples     []float64
		lower, high float64
	}{
		{[]float64{3}, 3, 3},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{5, 4, 1, 3, 2}, 2, 4},
		{[]float64{8, 7, 6, 5, 4, 3, 2, 1}, 2, 7},
		{[]float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, 3, 7},
	} {
		if got := quietQuartile(c.samples, "lower"); got != c.lower {
			t.Errorf("quietQuartile(%v, lower) = %v, want %v", c.samples, got, c.lower)
		}
		if got := quietQuartile(c.samples, "higher"); got != c.high {
			t.Errorf("quietQuartile(%v, higher) = %v, want %v", c.samples, got, c.high)
		}
	}
}
