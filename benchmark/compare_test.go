package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,100], n=4) == [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{100, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
	if got, want := quartileSpread([]float64{13, 10, 11}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{name: "round_s", better: "lower", bound: 0.10}
	higher := metricSpec{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	cases := []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{1.05, 1.06, 1.04}, "ok"},
		{lower, steady, []float64{1.20, 1.21, 1.19}, "worse"},
		{lower, steady, []float64{0.50, 0.51, 0.49}, "ok"}, // a gain is not a regression
		{higher, steady, []float64{0.80, 0.81, 0.79}, "worse"},
		{higher, steady, []float64{1.30, 1.31, 1.29}, "ok"},
		{lower, []float64{1.0, 1.3, 0.8, 1.2}, []float64{1.5, 1.5, 1.5}, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.spec.name, c.a, c.b, got, c.want)
		}
	}
}

// suiteFile writes records as a -suite file and returns its path.
func suiteFile(t *testing.T, name string, recs []suiteRecord) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func timedRecord(workload string, roundS float64) suiteRecord {
	metrics := map[string]metricValue{}
	for _, spec := range endToEnd() {
		metrics[spec.name] = metricValue{Value: 1, Unit: spec.unit}
	}
	metrics["round_s"] = metricValue{Value: roundS, Unit: "s"}
	return suiteRecord{Workload: workload, Seed: 1, Digests: map[string]string{workload: "d0"},
		Result: resultLine{Correct: true, Attempted: 1, Metrics: metrics}}
}

func tracedRecord(tasks float64, digest string) suiteRecord {
	return suiteRecord{Workload: "cells_large", Seed: 1, Trace: 1,
		Digests: map[string]string{"cells_large": digest},
		Result: resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"scheduler.tasks":       {Value: tasks, Unit: "count"},
			"scheduler.tasks_per_s": {Value: 4000 + tasks, Unit: "1/s"}, // timed: free to differ
		}}}
}

func TestCompareRowsAndLedger(t *testing.T) {
	a := suiteFile(t, "a.jsonl", []suiteRecord{
		timedRecord("cells_large", 1.00), timedRecord("cells_large", 1.01), timedRecord("cells_large", 0.99),
		tracedRecord(7660, "d0"),
	})
	same := suiteFile(t, "same.jsonl", []suiteRecord{
		timedRecord("cells_large", 1.02), timedRecord("cells_large", 1.03), timedRecord("cells_large", 1.01),
		tracedRecord(7660, "d0"),
	})
	var out bytes.Buffer
	if err := runCompare(&out, a, same); err != nil {
		t.Fatalf("A/A comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "virtual ledger: identical") {
		t.Errorf("no ledger row in:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "cells_large "); rows != len(endToEnd()) {
		t.Errorf("%d cells_large rows, want one per end-to-end metric (%d):\n%s", rows, len(endToEnd()), out.String())
	}

	slow := suiteFile(t, "slow.jsonl", []suiteRecord{
		timedRecord("cells_large", 1.30), timedRecord("cells_large", 1.31), timedRecord("cells_large", 1.29),
	})
	out.Reset()
	if err := runCompare(&out, a, slow); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("30%% slower round_s not reported as worse (err %v):\n%s", err, out.String())
	}

	for name, rec := range map[string]suiteRecord{
		"exact metric": tracedRecord(7661, "d0"),
		"digest":       tracedRecord(7660, "d1"),
	} {
		moved := suiteFile(t, "moved.jsonl", []suiteRecord{timedRecord("cells_large", 1.00), rec})
		out.Reset()
		if err := runCompare(&out, a, moved); err == nil || !strings.Contains(out.String(), "virtual ledger moved") {
			t.Errorf("%s change not reported as a moved ledger (err %v):\n%s", name, err, out.String())
		}
	}
}
