// Command benchmark is the repository's host-performance benchmark: four
// workloads, seven end-to-end metrics measured with tracing off, and an
// outside-in layer trace (spans recorded from this directory around each
// layer's public functions) that yields the per-layer metrics.
//
// One run measures one workload in one mode:
//
//	bash benchmark/run.sh --workload cells_large --seed 1 --seconds 20 --trace 0
//
// prints every metric by name with its unit, checks the outputs, and
// ends with one JSON line {correct, attempted, failed, metrics}. With
// --trace 1 the metrics are the per-layer ones. Two more modes serve
// before/after comparisons:
//
//	bash benchmark/run.sh -suite a.jsonl -runs 3    # every workload, both modes
//	bash benchmark/run.sh -compare a.jsonl b.jsonl  # apply the bounds
//	bash benchmark/run.sh -manifest > BENCHMARK.json # regenerate from catalog.go
//
// See README.md for the metric glossary and the A/A procedure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "seed of all generated inputs")
	seconds := flag.Float64("seconds", runSeconds, "time box of the measured region")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	suite := flag.String("suite", "", "run every workload in both modes -runs times and write the results to this JSONL file")
	runs := flag.Int("runs", 3, "invocations per workload and mode in -suite")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalog defines it")
	compare := flag.Bool("compare", false, "compare two -suite files given as arguments: ok, worse or unresolved per workload and metric")
	flag.Parse()

	var err error
	switch {
	case *printManifest:
		err = writeManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two suite files, got %d", flag.NArg())
		} else {
			err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *suite != "":
		err = runSuite(*suite, *runs, *seed, *seconds)
	case *workload == "":
		err = fmt.Errorf("no -workload given (have %v)", workloadNames())
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne is one contract run: one workload, one mode.
func runOne(workload string, seed int64, seconds float64, traced bool) error {
	e := newEnv(seed, frozenSizing)
	fmt.Printf("benchmark: workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d %s\n",
		workload, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var out outcome
	specs := endToEnd()
	if traced {
		if _, err := newDriver(workload, e); err != nil {
			return err
		}
		rec := newRecorder()
		var err error
		if out, err = runTraced(workload, e, seconds, rec); err != nil {
			return err
		}
		if err := writeTrace(workload, rec.snapshot()); err != nil {
			return err
		}
		specs = perLayer()
	} else {
		d, err := newDriver(workload, e)
		if err != nil {
			return err
		}
		out, err = runTimed(d, e, seconds)
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	line, err := render(os.Stdout, out, specs)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// render prints the metric table and returns the result line. Every
// catalogued metric must have been measured, and nothing else.
func render(w io.Writer, out outcome, specs []metricSpec) ([]byte, error) {
	res := resultLine{Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, note := range out.notes {
		fmt.Fprintln(w, note)
	}
	for _, spec := range specs {
		v, ok := out.metrics[spec.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", spec.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", spec.name, v)
		}
		note := spec.layer
		if spec.exact {
			note += "  exact"
		}
		fmt.Fprintf(w, "  %-32s %16.6g %-6s %s\n", spec.name, v, spec.unit, note)
		res.Metrics[spec.name] = metricValue{Value: v, Unit: spec.unit}
	}
	if len(out.metrics) != len(specs) {
		var extra []string
		for name := range out.metrics {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not catalogued: %v", extra)
	}
	for _, name := range sortedKeys(out.digests) {
		fmt.Fprintf(w, "virtual_digest %s %s\n", name, out.digests[name])
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed, correct=%t\n", out.attempted, out.failed, out.correct)
	return json.Marshal(res)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeTrace flushes the run's spans in Chrome trace-event format and
// prints where each layer's self time went.
func writeTrace(workload string, spans []span) error {
	dir := os.Getenv("BENCH_OUT")
	if dir == "" {
		dir = "out"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Printf("trace: %d spans -> %s; largest self times:\n", len(spans), path)
	for i, name := range names {
		if i == 12 {
			break
		}
		fmt.Printf("  %-44s %10.3f s\n", name, self[name])
	}
	return nil
}
