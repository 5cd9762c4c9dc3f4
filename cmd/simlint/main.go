// Command simlint runs the engine's determinism, concurrency and
// ownership analyzers over the module. It is a stdlib-only lint driver:
// packages are parsed with go/parser and type-checked with go/types
// (source importer), the module-wide call graph and value-flow facts are
// computed once, then eight project-specific analyzers run in parallel
// per package:
//
//	nodeterminism  wall-clock reads, global math/rand, map-order leaks
//	stagedcharge   direct tier/blockmgr/shuffle mutation in task compute
//	locksafety     lock copies, sends under lock, unguarded fields
//	errflow        discarded errors from module-internal APIs
//	hotbox         per-record boxing and reflection-based sorts on task
//	               hot paths
//	chunkalias     chunk-reference escapes, borrowed-column writes,
//	               reads after DropShuffle
//	tierledger     direct hotness/residency/copy-ledger mutation outside
//	               the observer and staged-commit paths
//	allowaudit     stale //simlint:allow directives
//
// Diagnostics print as "file:line: analyzer: message" (or as a JSON
// array with -json); any finding at or above the -min severity makes the
// exit status non-zero. A finding is suppressed by an adjacent comment
// of the form:
//
//	//simlint:allow <analyzer> <reason>
//
// on the offending line, the line above it, or in the enclosing
// function's doc comment. The reason is mandatory, and a directive that
// stops matching any finding is itself reported by allowaudit.
//
// Results are cached per package under <module root>/.simlintcache,
// keyed by content hashes of the package and of the whole module (facts
// cross package boundaries, so only a fully unchanged module can serve
// from cache). A warm run re-emits byte-identical diagnostics without
// parsing or type-checking anything; -nocache forces a cold run.
//
// Usage:
//
//	simlint [-list] [-json] [-min error|warning] [-nocache] [packages]
//
// where packages are directories or dir/... subtrees (default ./...).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array")
	minSev := flag.String("min", "warning", "minimum severity to report: warning or error")
	noCache := flag.Bool("nocache", false, "bypass the .simlintcache result cache")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-15s %-8s %s\n", a.Name, a.Severity, a.Doc)
		}
		return
	}

	var min analysis.Severity
	switch *minSev {
	case "warning":
		min = analysis.SevWarning
	case "error":
		min = analysis.SevError
	default:
		fmt.Fprintf(os.Stderr, "simlint: -min must be warning or error, got %q\n", *minSev)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	ld, err := analysis.NewLoader(cwd)
	if err != nil {
		fail(err)
	}

	var cache *analysis.Cache
	if !*noCache {
		cache, err = analysis.OpenCache(ld.Root(), analysis.All())
		if err != nil {
			fail(err)
		}
	}

	dirs, err := ld.ResolveDirs(patterns...)
	if err != nil {
		fail(err)
	}

	diags, warm := fromCache(cache, dirs)
	if !warm {
		pkgs, err := ld.Load(patterns...)
		if err != nil {
			fail(err)
		}
		diags = analysis.Run(ld.ModulePath(), ld.Fset(), pkgs, analysis.All())
		if cache != nil {
			for dir, group := range analysis.GroupByDir(dirs, diags) {
				if err := cache.Store(dir, group); err != nil {
					fail(err)
				}
			}
		}
	}

	var shown []analysis.Diagnostic
	for _, d := range diags {
		if d.Severity.AtLeast(min) {
			shown = append(shown, d)
		}
	}

	if *asJSON {
		printJSON(cwd, shown)
	} else {
		for _, d := range shown {
			fmt.Println(d.StringRel(cwd))
		}
	}
	if len(shown) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(shown))
		os.Exit(1)
	}
}

// fromCache serves the run from cache when every resolved package
// directory has a valid entry; a single miss falls back to a cold run
// (facts cross package boundaries, so partial reuse would be unsound
// anyway — the module hash already guarantees all-or-nothing).
func fromCache(cache *analysis.Cache, dirs []string) ([]analysis.Diagnostic, bool) {
	if cache == nil {
		return nil, false
	}
	var diags []analysis.Diagnostic
	for _, dir := range dirs {
		got, ok := cache.Lookup(dir)
		if !ok {
			return nil, false
		}
		diags = append(diags, got...)
	}
	analysis.SortDiagnostics(diags)
	return diags, true
}

// jsonDiag is the -json wire format, one object per finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

func printJSON(base string, diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		out = append(out, jsonDiag{
			File:     name,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Severity: string(d.Severity),
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "simlint:", err)
	os.Exit(2)
}
