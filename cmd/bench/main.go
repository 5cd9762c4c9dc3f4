// Command bench runs the wall-clock harness (package bench) and records
// the host-performance ledger: ns/op, allocs/op and bytes/op per
// workload and shuffle micro-benchmark.
//
// Results accumulate in a labelled JSON file so a perf PR commits both
// sides of its claim:
//
//	bench -label before -iters 3 -out BENCH_wallclock.json
//	... apply the optimization ...
//	bench -label after  -iters 3 -out BENCH_wallclock.json -md results/wallclock.md
//
// The -md report renders before/after deltas once both labels exist.
// CI runs the harness with -iters 1 and -max-allocs as an
// allocation-regression tripwire on the chunk-shuffle hot paths and on
// the end-to-end report (a lost cell memo nearly doubles its allocs/op):
//
//	bench -iters 1 -max-allocs 'micro/reduceByKey=10000,workload/sort=50000,e2e/reproduce=2100000'
//
// Usage:
//
//	bench [-label after] [-iters 3] [-run substring]
//	      [-out BENCH_wallclock.json] [-md results/wallclock.md]
//	      [-max-allocs case=N,...]
//	      [-cpuprofile f] [-memprofile f]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/bench"
	"repro/internal/telemetry"
)

// run is one labelled harness execution.
type run struct {
	Iters   int            `json:"iters"`
	Note    string         `json:"note,omitempty"`
	Results []bench.Result `json:"results"`
}

// file is the on-disk BENCH_wallclock.json shape. Notes are markdown
// lines the -md report carries below its table: measurements the harness
// does not take itself (the repository benchmark's per-layer numbers)
// that belong beside the rows they explain.
type file struct {
	Description string         `json:"description"`
	Notes       []string       `json:"notes,omitempty"`
	Runs        map[string]run `json:"runs"`
}

func main() {
	label := flag.String("label", "after", "run label stored in the JSON file (before/after)")
	iters := flag.Int("iters", 3, "timed iterations per case (one extra warm-up always runs)")
	filter := flag.String("run", "", "only run cases whose name contains this substring")
	out := flag.String("out", "BENCH_wallclock.json", "accumulate results into this JSON file ('' = stdout only)")
	md := flag.String("md", "", "write a before/after markdown report to this path")
	note := flag.String("note", "", "free-form note stored with the run (e.g. commit subject)")
	maxAllocs := flag.String("max-allocs", "",
		"comma-separated case=N allocs/op ceilings; fail if any measured case exceeds its ceiling")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var cases []bench.Case
	for _, c := range bench.Cases() {
		if *filter == "" || strings.Contains(c.Name, *filter) {
			cases = append(cases, c)
		}
	}
	if len(cases) == 0 {
		fatal(fmt.Errorf("no cases match -run %q", *filter))
	}

	sw := telemetry.StartStopwatch()
	results := make([]bench.Result, 0, len(cases))
	for _, c := range cases {
		fmt.Fprintf(os.Stderr, "%s bench %-24s", sw.Stamp(), c.Name)
		r := bench.Measure(c, *iters)
		results = append(results, r)
		fmt.Fprintf(os.Stderr, " %12d ns/op %10d allocs/op %12d B/op\n",
			r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	doc := load(*out)
	doc.Runs[*label] = run{Iters: *iters, Note: *note, Results: results}

	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s wrote %s (%s run, %d cases)\n", sw.Stamp(), *out, *label, len(results))
	} else {
		if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
			fatal(err)
		}
	}

	if *md != "" {
		if err := os.WriteFile(*md, []byte(renderMarkdown(doc)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s wrote %s\n", sw.Stamp(), *md)
	}

	ceilings, err := parseCeilings(*maxAllocs)
	if err != nil {
		fatal(err)
	}
	if len(ceilings) > 0 {
		for _, r := range results {
			ceiling, ok := ceilings[r.Name]
			if !ok {
				continue
			}
			if r.AllocsPerOp > ceiling {
				fatal(fmt.Errorf("%s allocs/op %d exceeds ceiling %d: per-record allocation crept back into the chunk path, or e2e/reproduce stopped sharing cells between figures",
					r.Name, r.AllocsPerOp, ceiling))
			}
			fmt.Fprintf(os.Stderr, "%s ceiling ok: %s %d <= %d allocs/op\n", sw.Stamp(), r.Name, r.AllocsPerOp, ceiling)
		}
	}
}

// parseCeilings parses "case=N,case=N" into a ceiling map.
func parseCeilings(s string) (map[string]int64, error) {
	out := map[string]int64{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, num, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("malformed -max-allocs entry %q (want case=N)", part)
		}
		var n int64
		if _, err := fmt.Sscanf(num, "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("malformed -max-allocs ceiling %q (want a positive integer)", num)
		}
		out[name] = n
	}
	return out, nil
}

// load reads an existing results file, or starts a fresh one.
func load(path string) file {
	doc := file{
		Description: "Host wall-clock ledger: ns/op, allocs/op, bytes/op per case (cmd/bench). " +
			"Virtual results are unaffected by anything measured here; see DESIGN.md 'Two ledgers'.",
		Runs: map[string]run{},
	}
	if path == "" {
		return doc
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc
	}
	var existing file
	if err := json.Unmarshal(raw, &existing); err != nil || existing.Runs == nil {
		return doc
	}
	existing.Description = doc.Description
	return existing
}

func writeJSON(path string, doc file) error {
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// renderMarkdown writes the before/after comparison once both labels
// exist; with a single run it renders that run's absolute numbers.
func renderMarkdown(doc file) string {
	var b strings.Builder
	b.WriteString("# Wall-clock ledger: host time and allocations per case\n\n")
	b.WriteString("Generated by `go run ./cmd/bench` from BENCH_wallclock.json.\n")
	b.WriteString("These numbers are the *host* ledger only — the virtual ledger\n")
	b.WriteString("(results/full_report.txt) is byte-identical across the runs below;\n")
	b.WriteString("see DESIGN.md \"Two ledgers\".\n\n")

	before, hasBefore := doc.Runs["before"]
	after, hasAfter := doc.Runs["after"]
	if hasBefore && hasAfter {
		b.WriteString(fmt.Sprintf("Before: %s · after: %s.\n\n", runDesc(before), runDesc(after)))
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
			b.WriteString(fmt.Sprintf("| %s | %s | %s | %s | %s | %s | %s | %.1f | %.1f |\n",
				a.Name,
				group(pre.NsPerOp), group(a.NsPerOp), delta(pre.NsPerOp, a.NsPerOp),
				group(pre.AllocsPerOp), group(a.AllocsPerOp), delta(pre.AllocsPerOp, a.AllocsPerOp),
				float64(pre.BytesPerOp)/1e6, float64(a.BytesPerOp)/1e6))
		}
		writeNotes(&b, doc)
		return b.String()
	}

	labels := make([]string, 0, len(doc.Runs))
	for l := range doc.Runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		r := doc.Runs[l]
		b.WriteString(fmt.Sprintf("## %s (%s)\n\n", l, runDesc(r)))
		b.WriteString("| case | ns/op | allocs/op | MB/op |\n|---|---:|---:|---:|\n")
		for _, res := range r.Results {
			b.WriteString(fmt.Sprintf("| %s | %s | %s | %.1f |\n",
				res.Name, group(res.NsPerOp), group(res.AllocsPerOp), float64(res.BytesPerOp)/1e6))
		}
		b.WriteString("\n")
	}
	writeNotes(&b, doc)
	return b.String()
}

func writeNotes(b *strings.Builder, doc file) {
	if len(doc.Notes) > 0 {
		b.WriteString("\n" + strings.Join(doc.Notes, "\n") + "\n")
	}
}

func runDesc(r run) string {
	if r.Note != "" {
		return fmt.Sprintf("%d iters, %s", r.Iters, r.Note)
	}
	return fmt.Sprintf("%d iters", r.Iters)
}

// delta renders the relative change, negative meaning improvement.
func delta(before, after int64) string {
	if before == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(after-before)/float64(before))
}

// group renders an integer with thousands separators for readability.
func group(n int64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
