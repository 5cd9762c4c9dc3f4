package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/bench"
	"repro/internal/telemetry"
)

// hostBench runs the wall-clock harness (package bench) and records the
// host ledger — ns/op, allocs/op and bytes/op per case — under -label in a
// JSON file, so a performance change commits both sides of its claim; -md
// renders the before/after deltas. CI runs it with -iters 1 and
// -max-allocs as an allocation tripwire.
func hostBench(c *ctx) func() error {
	label := c.fs.String("label", "after", "run label stored in the JSON file (before/after)")
	iters := flagOf(c, "iters", "3", "timed iterations per case (one extra warm-up always runs)", atLeast(1))
	cases := flagOf(c, "run", "", "only run cases whose name contains this substring", benchCases)
	out := c.fs.String("out", "BENCH_wallclock.json", "accumulate results into this JSON file ('' = stdout only)")
	md := c.fs.String("md", "", "write a before/after markdown report to this path")
	note := c.fs.String("note", "", "free-form note stored with the run (e.g. commit subject)")
	ceilings := flagOf(c, "max-allocs", "",
		"comma-separated case=N allocs/op ceilings; fail if any measured case exceeds its ceiling", parseCeilings)
	profiled := c.profiled()
	return func() error {
		doc, err := loadLedger(*out)
		if err != nil {
			return err
		}
		sw := telemetry.StartStopwatch()
		results := make([]bench.Result, 0, len(*cases))
		err = profiled(func() error {
			for _, bc := range *cases {
				fmt.Fprintf(c.stderr, "%s bench %-24s", sw.Stamp(), bc.Name)
				r := bench.Measure(bc, *iters)
				results = append(results, r)
				fmt.Fprintf(c.stderr, " %12d ns/op %10d allocs/op %12d B/op\n",
					r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
			}
			return nil
		})
		if err != nil {
			return err
		}

		doc.Runs[*label] = ledgerRun{Iters: *iters, Note: *note, Results: results}
		if *out == "" {
			if err := json.NewEncoder(c.stdout).Encode(doc); err != nil {
				return err
			}
		} else {
			raw, err := json.MarshalIndent(doc, "", "  ")
			if err == nil {
				err = os.WriteFile(*out, append(raw, '\n'), 0o644)
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(c.stderr, "%s wrote %s (%s run, %d cases)\n", sw.Stamp(), *out, *label, len(results))
		}
		if *md != "" {
			if err := os.WriteFile(*md, []byte(renderMarkdown(doc)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(c.stderr, "%s wrote %s\n", sw.Stamp(), *md)
		}

		for _, r := range results {
			switch ceiling, ok := (*ceilings)[r.Name]; {
			case ok && r.AllocsPerOp > ceiling:
				return fmt.Errorf("%s allocs/op %d exceeds ceiling %d: per-record allocation crept back into the chunk path, or e2e/reproduce stopped sharing cells between figures",
					r.Name, r.AllocsPerOp, ceiling)
			case ok:
				fmt.Fprintf(c.stderr, "%s ceiling ok: %s %d <= %d allocs/op\n", sw.Stamp(), r.Name, r.AllocsPerOp, ceiling)
			}
		}
		return nil
	}
}

// benchCases is the harness cases whose name contains filter.
func benchCases(filter string) ([]bench.Case, error) {
	var cases []bench.Case
	for _, c := range bench.Cases() {
		if strings.Contains(c.Name, filter) {
			cases = append(cases, c)
		}
	}
	if len(cases) == 0 {
		return nil, errors.New("no case matches")
	}
	return cases, nil
}

// parseCeilings parses "case=N,case=N" into a ceiling map. Each case must
// be one of the harness's, so a misspelt ceiling cannot pass unchecked.
func parseCeilings(s string) (map[string]int64, error) {
	out := map[string]int64{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, num, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("malformed entry %q (want case=N)", part)
		}
		if !slices.ContainsFunc(bench.Cases(), func(c bench.Case) bool { return c.Name == name }) {
			return nil, fmt.Errorf("no harness case is named %q", name)
		}
		n, err := strconv.ParseInt(num, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("malformed ceiling %q (want a positive integer)", num)
		}
		out[name] = n
	}
	return out, nil
}

// ledgerRun is one labelled harness execution.
type ledgerRun struct {
	Iters   int            `json:"iters"`
	Note    string         `json:"note,omitempty"`
	Results []bench.Result `json:"results"`
}

// ledger is the on-disk BENCH_wallclock.json shape. Notes are markdown
// lines the -md report carries below its table: measurements the harness
// does not take itself (the repository benchmark's per-layer numbers)
// that belong beside the rows they explain.
type ledger struct {
	Description string               `json:"description"`
	Notes       []string             `json:"notes,omitempty"`
	Runs        map[string]ledgerRun `json:"runs"`
}

// loadLedger reads the results file at path, or starts a fresh ledger
// when there is none. A file that exists but does not parse is an error,
// so the runs and notes it holds are never overwritten.
func loadLedger(path string) (doc ledger, err error) {
	if path != "" {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return doc, fmt.Errorf("%s: %w (fix or remove it)", path, err)
		}
	}
	if doc.Runs == nil {
		doc.Runs = map[string]ledgerRun{}
	}
	doc.Description = "Host wall-clock ledger: ns/op, allocs/op, bytes/op per case (repro bench). " +
		"Virtual results are unaffected by anything measured here; see DESIGN.md 'Two ledgers'."
	return doc, nil
}

// renderMarkdown writes the before/after comparison once both labels
// exist; with a single run it renders that run's absolute numbers.
func renderMarkdown(doc ledger) string {
	var b strings.Builder
	b.WriteString("# Wall-clock ledger: host time and allocations per case\n\n")
	b.WriteString("Generated by `go run ./cmd/repro bench` from BENCH_wallclock.json.\n")
	b.WriteString("These numbers are the *host* ledger only — the virtual ledger\n")
	b.WriteString("(results/full_report.txt) is byte-identical across the runs below;\n")
	b.WriteString("see DESIGN.md \"Two ledgers\".\n\n")

	before, hasBefore := doc.Runs["before"]
	after, hasAfter := doc.Runs["after"]
	if hasBefore && hasAfter {
		fmt.Fprintf(&b, "Before: %s · after: %s.\n\n", runDesc(before), runDesc(after))
		b.WriteString("| case | ns/op before | ns/op after | Δ time | allocs/op before | allocs/op after | Δ allocs | MB/op before | MB/op after |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		beforeByName := map[string]bench.Result{}
		for _, r := range before.Results {
			beforeByName[r.Name] = r
		}
		for _, a := range after.Results {
			pre, ok := beforeByName[a.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %.1f | %.1f |\n",
				a.Name,
				group(pre.NsPerOp), group(a.NsPerOp), change(pre.NsPerOp, a.NsPerOp),
				group(pre.AllocsPerOp), group(a.AllocsPerOp), change(pre.AllocsPerOp, a.AllocsPerOp),
				float64(pre.BytesPerOp)/1e6, float64(a.BytesPerOp)/1e6)
		}
	} else {
		labels := make([]string, 0, len(doc.Runs))
		for l := range doc.Runs {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			r := doc.Runs[l]
			fmt.Fprintf(&b, "## %s (%s)\n\n", l, runDesc(r))
			b.WriteString("| case | ns/op | allocs/op | MB/op |\n|---|---:|---:|---:|\n")
			for _, res := range r.Results {
				fmt.Fprintf(&b, "| %s | %s | %s | %.1f |\n",
					res.Name, group(res.NsPerOp), group(res.AllocsPerOp), float64(res.BytesPerOp)/1e6)
			}
			b.WriteString("\n")
		}
	}
	if len(doc.Notes) > 0 {
		b.WriteString("\n" + strings.Join(doc.Notes, "\n") + "\n")
	}
	return b.String()
}

func runDesc(r ledgerRun) string {
	if r.Note != "" {
		return fmt.Sprintf("%d iters, %s", r.Iters, r.Note)
	}
	return fmt.Sprintf("%d iters", r.Iters)
}

// change renders the relative change, negative meaning improvement.
func change(before, after int64) string {
	if before == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(after-before)/float64(before))
}

// group renders an integer with thousands separators for readability.
func group(n int64) string {
	s := strconv.FormatInt(n, 10)
	for i := len(s) - 3; i > 0 && s[i-1] != '-'; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
