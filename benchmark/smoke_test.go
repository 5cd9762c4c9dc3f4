package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCatalog holds BENCHMARK.json to the catalog and the
// catalog to the limits of the benchmark contract.
func TestManifestMatchesCatalog(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(onDisk, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 || len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d keys in %d bytes, want exactly 6 in at most 64 KiB", len(keys), len(onDisk))
	}

	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not letters, digits, _ . - (at most 64)", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, s := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
		name(s.Name)
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("unit %q of %s is not a contract unit", s.Unit, s.Name)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("better of %s is %q", s.Name, s.Better)
		}
		if s.Bound != nil && (*s.Bound <= 0 || *s.Bound > 0.25) {
			t.Errorf("bound of %s is %v, want (0, 0.25]", s.Name, *s.Bound)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower" && s.Bound != nil)
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better, with a bound")
	}
}

// TestSmoke runs every workload and probe at a seconds-long scale: each
// catalogued name is emitted exactly once (render refuses a missing or
// an uncatalogued metric), no check fails, and a workload's timed and
// traced paths agree on its virtual digest.
func TestSmoke(t *testing.T) {
	e := newEnv(3, smokeSizing)
	e.tmp = t.TempDir()
	digests := map[string]string{}
	for _, w := range workloadNames() {
		d, err := newDriver(w, e)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runTimed(d, e, 0) // a zero time box is one round
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if err := d.close(); err != nil {
			t.Errorf("%s: close: %v", w, err)
		}
		if !out.correct || out.failed != 0 || out.attempted < 1 {
			t.Errorf("%s timed: correct=%t, %d of %d checks failed", w, out.correct, out.failed, out.attempted)
		}
		line, err := render(io.Discard, out, endToEnd())
		if err != nil {
			t.Errorf("%s timed: %v", w, err)
		}
		checkLine(t, w, line, endToEnd())
		for _, spec := range endToEnd() {
			if out.metrics[spec.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, spec.name, out.metrics[spec.name])
			}
		}
		digests[w] = out.digests[w]
	}

	rec := newRecorder()
	out, err := runTraced("cells_large", e, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct || out.failed != 0 {
		t.Errorf("traced: correct=%t, %d of %d checks failed", out.correct, out.failed, out.attempted)
	}
	line, err := render(io.Discard, out, perLayer())
	if err != nil {
		t.Errorf("traced: %v", err)
	}
	checkLine(t, "traced", line, perLayer())
	for _, w := range workloadNames() {
		if out.digests[w] == "" || out.digests[w] != digests[w] {
			t.Errorf("%s: traced digest %q differs from timed digest %q", w, out.digests[w], digests[w])
		}
	}
	spans := rec.snapshot()
	if int(out.metrics["trace.spans"]) != len(spans) || len(spans) == 0 {
		t.Errorf("trace.spans = %v, recorder holds %d", out.metrics["trace.spans"], len(spans))
	}
	if entries, err := os.ReadDir(e.tmp); err != nil || len(entries) != 0 {
		t.Errorf("scratch dirs left behind: %v (err %v)", entries, err)
	}
}

// checkLine decodes a result line and compares its metric set and units
// with the catalog.
func checkLine(t *testing.T, label string, line []byte, specs []metricSpec) {
	t.Helper()
	var res resultLine
	if err := json.Unmarshal(line, &res); err != nil {
		t.Errorf("%s: result line does not decode: %v", label, err)
		return
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics in the result line, catalog has %d", label, len(res.Metrics), len(specs))
	}
	for _, spec := range specs {
		if got, ok := res.Metrics[spec.name]; !ok || got.Unit != spec.unit {
			t.Errorf("%s: metric %s missing or unit %q != %q", label, spec.name, got.Unit, spec.unit)
		}
	}
}
