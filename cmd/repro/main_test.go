package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every subcommand at its cheapest setting: exit 0, and the table it exists
// to print on stdout. The harnesses that write a committed report under
// results/ are covered by the golden test that regenerates it.
func TestSubcommandsRender(t *testing.T) {
	cases := []struct {
		args []string
		want string // on stdout
		slow bool   // simulates cells: skipped in -short
	}{
		{strings.Fields("tierprobe"), "Table I:", false},
		{strings.Fields("report"), "Table II:", false},
		{strings.Fields("characterize -workloads sort -fig time"), "Figure 2 (top)", true},
		{strings.Fields("characterize -workloads sort -fig ipmctl"), "sort/large on", true},
		{strings.Fields("mba -workloads sort -tier 0"), "Figure 3:", true},
		{strings.Fields("scaling -workloads sort -sizes tiny"), "worst slowdown", true},
		{strings.Fields("correlate -workloads sort -fig 6"), "Figure 6:", true},
		{strings.Fields("advisor -cache="), "recommended tier for pagerank/large", true},
		{strings.Fields("placement -workloads sort -size tiny -interleave -cache="), "Heap interleave sweep: sort/tiny", true},
		{[]string{"whatif", "-workloads", "sort, lda", "-size", "tiny", "-cache="}, "  lda  ", true}, // the space is trimmed
		{strings.Fields("sensitivity -workloads sort -size tiny"), "Cost-model sensitivity", true},
		{strings.Fields("copybytes -workloads sort -size tiny"), "bytes by-ref", true},
		{strings.Fields("cell -workload sort -size tiny -tier 2 -json"), `"spec": "sort/tiny@Tier 2 1x40"`, true},
		{strings.Fields("bench -run micro/groupByKey -iters 1 -out="), `"name":"micro/groupByKey"`, true},
	}
	covered := map[string]bool{"autotier": true, "chaos": true, "multitenant": true} // by the *Golden tests below
	for _, tc := range cases {
		covered[tc.args[0]] = true
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("simulates cells")
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Errorf("stdout lacks %q:\n%s", tc.want, stdout.String())
			}
		})
	}
	for _, cmd := range commands {
		if !covered[cmd.name] {
			t.Errorf("subcommand %s has no case here", cmd.name)
		}
	}
}

// A usage error — unknown subcommand or flag, a value the shared parsers
// reject, a list item given twice — is exit 2 with the usage text on
// stderr and nothing on stdout, from every subcommand alike and before
// anything runs.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nope"},
		{"mba", "-bogus"},
		{"mba", "stray"},
		{"whatif", "-size", "huge"},
		{"autotier", "-size", "huge"},
		{"mba", "-tier", "9"},
		{"chaos", "-tiers", "0,7"},
		{"chaos", "-tiers", ""},
		{"placement", "-workloads", "sort,nope"},
		{"advisor", "-holdout", "nope"},
		{"correlate", "-fig", "7"},
		{"characterize", "-fig", "2a"},
		{"autotier", "-policies", "lru"},
		{"autotier", "-policies", "static"},
		{"characterize", "-workloads", "sort,sort"},
		{"scaling", "-sizes", "tiny,tiny"},
		{"chaos", "-tiers", "0,0"},
		{"autotier", "-policies", "age,age"},
		{"cell", "-tier", "9"},
		{"cell", "-cap", "2"},
		{"cell", "-workload", "nope"},
		{"cell", "-tasks", "-1"},
		{"cell", "-executors", "-1"},
		{"bench", "-iters", "0"},
		{"bench", "-run", "nope"},
		{"bench", "-max-allocs", "micro/groupByKey=abc"},
		{"bench", "-max-allocs", "micro/reducebykey=1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage: repro") {
			t.Errorf("%q: stderr lacks the usage text:\n%s", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout:\n%s", args, stdout.String())
		}
	}
}

// -o sends the report to the file and keeps it off stdout; a run that
// fails after its flags parsed is exit 1.
func TestOutputFileAndRunFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates cells")
	}
	path := filepath.Join(t.TempDir(), "copy.md")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"copybytes", "-workloads", "sort", "-size", "tiny", "-o", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	report, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(report), "bytes by-ref") || stdout.Len() != 0 {
		t.Errorf("report file: err %v, %d bytes; stdout %d bytes, want the report in the file only", err, len(report), stdout.Len())
	}

	missing := filepath.Join(t.TempDir(), "no-such-dir", "copy.md")
	stderr.Reset()
	if code := run([]string{"copybytes", "-workloads", "sort", "-size", "tiny", "-o", missing}, &stdout, &stderr); code != 1 {
		t.Errorf("unwritable -o: exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
}

// A ledger that exists but does not parse fails the run before any case
// is measured, and is left byte for byte as it was.
func TestBenchKeepsUnparseableLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_wallclock.json")
	broken := []byte(`{"description": "", "runs": {"before": {"iters": 3, "results": []}}`)
	if err := os.WriteFile(path, broken, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"bench", "-run", "micro/groupByKey", "-out", path}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "micro/groupByKey") {
		t.Errorf("measured a case before failing:\n%s", stderr.String())
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, broken) {
		t.Errorf("ledger rewritten (err %v):\n%s", err, got)
	}
}

// The committed wall-clock report is what the renderer makes of the
// committed ledger.
func TestWallclockReportRendersLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_wallclock.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc ledger
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "wallclock.md"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderMarkdown(doc); got != string(want) {
		t.Errorf("renderMarkdown(BENCH_wallclock.json) differs from results/wallclock.md:\n%s", got)
	}
}

// goldenReport regenerates one committed report from the flags its
// "Generated by" line records and compares bytes.
func goldenReport(t *testing.T, file, args string) {
	if testing.Short() {
		t.Skip("simulates cells")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", file))
	if err != nil {
		t.Fatal(err)
	}
	if line := "Generated by `go run ./cmd/repro " + args + " -o results/" + file + "`."; !strings.Contains(string(want), line) {
		t.Errorf("results/%s does not record the command that regenerates it: %s", file, line)
	}
	path := filepath.Join(t.TempDir(), file)
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(args+" -o "+path), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("repro %s differs from results/%s (%d vs %d bytes); regenerate it only if the virtual ledger was meant to move", args, file, len(got), len(want))
	}
}

// The committed tiering report is what the command prints today: every
// plan, heatmap and virtual duration in results/autotier.md regenerates
// byte-identical, whatever the host-side data structures under the
// tiering tick look like.
func TestAutotierReportGolden(t *testing.T) {
	goldenReport(t, "autotier.md", "autotier -size large -seed 1")
}

// So are the other reports a repro subcommand writes under results/.
func TestResultsGolden(t *testing.T) {
	for file, args := range map[string]string{
		"chaos_recovery.md": "chaos -tiers 0,2 -size tiny -seed 1",
		"shuffle_copy.md":   "copybytes -size small -seed 1",
		"multitenant.md":    "multitenant -size tiny -seed 5",
	} {
		t.Run(file, func(t *testing.T) { goldenReport(t, file, args) })
	}
}
