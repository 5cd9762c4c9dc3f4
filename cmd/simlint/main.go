// Command simlint runs the engine's determinism, concurrency and
// hot-path analyzers over the module. It is a stdlib-only lint driver:
// packages are parsed with go/parser and type-checked with go/types
// (source importer), the module-wide call graph is computed once, then
// six project-specific analyzers run in parallel per package:
//
//	nodeterminism  wall-clock reads, global math/rand, map-order leaks
//	locksafety     sends under lock, unguarded fields (lock copies are
//	               go vet's copylocks)
//	errflow        discarded errors from module-internal APIs
//	hotbox         per-record boxing and reflection-based sorts on task
//	               hot paths, and those sorts under the tiering tick
//	unreached      internal/ declarations no shipped code uses (judged
//	               only when the run holds the whole module)
//	allowaudit     stale //simlint:allow directives
//
// Diagnostics print as "file:line: analyzer: message" (or as a JSON
// array with -json); any finding makes the exit status non-zero. A
// finding is suppressed by an adjacent comment of the form:
//
//	//simlint:allow <analyzer> <reason>
//
// on the offending line, the line above it, or in the enclosing
// function's doc comment. The reason is mandatory, and a directive that
// stops matching any finding is itself reported by allowaudit.
//
// Usage:
//
//	simlint [-list] [-json] [packages]
//
// where packages are directories or dir/... subtrees (default ./...).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-15s %-8s %s\n", a.Name, a.Severity, a.Doc)
		}
		return
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
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		fail(err)
	}
	diags := analysis.Run(ld.ModulePath(), ld.Fset(), pkgs, analysis.All())

	if *asJSON {
		out := make([]analysis.WireDiag, len(diags)) // [] when clean, not null
		for i, d := range diags {
			out[i] = d.Wire(cwd)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.StringRel(cwd))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "simlint:", err)
	os.Exit(2)
}
