package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every subcommand at its cheapest setting: exit 0, and the table (or the
// verdict line) it exists to print on stdout.
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
		{strings.Fields("autotier -smoke"), "autotier smoke: OK", true},
		{strings.Fields("chaos -smoke"), "# Chaos harness", true},
		{strings.Fields("multitenant -smoke"), "**Winner:", true},
	}
	covered := map[string]bool{}
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
// reject — is exit 2 with the usage text on stderr and nothing on stdout,
// from every subcommand alike and before anything runs.
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

// The committed tiering report is what the command prints today: every
// plan, heatmap and virtual duration in results/autotier.md regenerates
// byte-identical, whatever the host-side data structures under the
// tiering tick look like.
func TestAutotierReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates cells")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "autotier.md"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "autotier.md")
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("autotier -size large -seed 1 -o "+path), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("autotier report differs from results/autotier.md (%d vs %d bytes); regenerate it only if the virtual ledger was meant to move", len(got), len(want))
	}
}
