// Command repro runs the paper's experiments and the extension studies,
// one subcommand each: the tables and figures (tierprobe, report,
// characterize, mba, scaling, correlate), the studies built on them
// (advisor, placement, whatif, sensitivity, copybytes), the harnesses
// that assert as they measure (autotier, chaos, multitenant) and one cell
// (cell). Every subcommand is deterministic at a fixed -seed and prints
// to stdout; progress goes to stderr. A bad flag value is a usage error
// (exit 2) reported before anything runs; a failed run or assertion is
// exit 1. cmd/reproduce renders the whole evaluation in one pass instead.
//
// Usage:
//
//	repro <subcommand> [flags]
//	repro <subcommand> -h
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// command is one subcommand. setup registers the flags it accepts on
// c.fs and returns the run to make once they have parsed, so a usage
// error can only come from the parse and a run failure only from the run.
type command struct {
	name, synopsis string
	setup          func(c *ctx) func() error
}

var commands = []command{
	{"tierprobe", "Table I: probed idle latency and bandwidth per tier", tierprobe},
	{"report", "Table II, with -run the headline numbers, with -tiering the tiering demo", report},
	{"characterize", "Figure 2: time, DCPM media accesses and DIMM energy per workload, size and tier", characterize},
	{"mba", "Figure 3: execution time under MBA bandwidth caps", mba},
	{"scaling", "Figure 4: executors x cores speedup grids against 1x40", scaling},
	{"correlate", "Figures 5 and 6: metric and hardware-spec correlations with execution time", correlate},
	{"advisor", "§IV-F: tier performance predictor, leave-one-workload-out", tierAdvisor},
	{"placement", "§IV-G: a tier per traffic category, and the DRAM:NVM heap interleave sweep", placement},
	{"whatif", "hypothetical capacity technologies (CXL DRAM, next-gen NVM) in the Tier 2 slot", whatif},
	{"sensitivity", "the Tier 2 gap under ±20% cost-model perturbations", sensitivity},
	{"copybytes", "shuffle bytes served by reference instead of copied, shuffle on DCPM", copybytes},
	{"autotier", "dynamic tiering policies x DRAM budgets against the static baseline", autotier},
	{"chaos", "fault injection: recovered runs byte-identical to fault-free, overhead per tier", chaos},
	{"multitenant", "scheduler x migration policy sweep over an oversubscribed multi-job mix", tenants},
	{"cell", "one workload at one size under one configuration: the full measurement record", cell},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var cmd *command
	for i := range commands {
		if len(args) > 0 && commands[i].name == args[0] {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		if len(args) > 0 && args[0] != "-h" && args[0] != "-help" && args[0] != "--help" {
			fmt.Fprintf(stderr, "repro: unknown subcommand %q\n", args[0])
		}
		fmt.Fprintln(stderr, "usage: repro <subcommand> [flags]")
		for _, cmd := range commands {
			fmt.Fprintf(stderr, "  %-13s%s\n", cmd.name, cmd.synopsis)
		}
		return 2
	}
	c := &ctx{stdout: stdout, stderr: stderr, fs: flag.NewFlagSet(cmd.name, flag.ContinueOnError)}
	c.fs.SetOutput(stderr)
	c.fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: repro %s [flags]\n  %s\n", cmd.name, cmd.synopsis)
		c.fs.PrintDefaults()
	}
	body := cmd.setup(c)
	err := c.fs.Parse(args[1:])
	if err == nil && c.fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", c.fs.Arg(0))
		fmt.Fprintln(stderr, err)
		c.fs.Usage()
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // the flag package has printed the error and the usage
	}
	if err := body(); err != nil {
		fmt.Fprintf(stderr, "repro %s: %v\n", cmd.name, err)
		return 1
	}
	return 0
}

// ctx is what a subcommand runs against: its output streams and the flag
// set it registers on. The methods below declare the flags more than one
// subcommand takes, each once, with the subcommand's own default.
type ctx struct {
	stdout, stderr io.Writer
	fs             *flag.FlagSet
}

func (c *ctx) printf(format string, args ...any) { fmt.Fprintf(c.stdout, format, args...) }
func (c *ctx) println(args ...any)               { fmt.Fprintln(c.stdout, args...) }

// value is a flag parsed and validated as the flag package sets it, so a
// bad value is a usage error raised before anything runs.
type value[T any] struct {
	v     T
	text  string
	parse func(string) (T, error)
}

func (f *value[T]) String() string { return f.text }

func (f *value[T]) Set(s string) (err error) {
	f.text = s
	f.v, err = f.parse(s)
	return err
}

func flagOf[T any](c *ctx, name, def, usage string, parse func(string) (T, error)) *T {
	f := &value[T]{parse: parse}
	if err := f.Set(def); err != nil {
		panic(err) // a default is a constant of this package
	}
	c.fs.Var(f, name, usage)
	return &f.v
}

func (c *ctx) seed(def int64) *int64 { return c.fs.Int64("seed", def, "experiment seed") }

func (c *ctx) size(def string) *workloads.Size {
	return flagOf(c, "size", def, "dataset size: tiny, small, large", workloads.ParseSize)
}

func (c *ctx) sizes(def string) *[]workloads.Size {
	return flagOf(c, "sizes", def, "comma-separated dataset sizes to sweep",
		func(s string) ([]workloads.Size, error) { return list(s, workloads.ParseSize) })
}

// workloads is the -workloads list; empty selects def, the subcommand's
// default set, and a nil def leaves the choice to the driver.
func (c *ctx) workloads(def []string) *[]string {
	return flagOf(c, "workloads", "", "comma-separated workload names (empty: the subcommand's default set)",
		func(s string) ([]string, error) {
			if s == "" {
				return def, nil
			}
			return list(s, workloadName)
		})
}

func (c *ctx) tier(def string) *memsim.TierID {
	return flagOf(c, "tier", def, "memory tier to run on (0-3)", parseTier)
}

func (c *ctx) fig(usage, def string, others ...string) *string {
	return flagOf(c, "fig", def, usage, func(s string) (string, error) {
		for _, ok := range append(others, def) {
			if s == ok {
				return s, nil
			}
		}
		return "", fmt.Errorf("unknown figure %q", s)
	})
}

// output registers -o. The returned deliver writes a rendered report to
// the named file and returns its path, or returns "" when none was named
// and the report belongs on stdout.
func (c *ctx) output() (deliver func(report string) (path string, err error)) {
	path := c.fs.String("o", "", "write the report to this file instead of stdout")
	return func(report string) (string, error) {
		if *path == "" {
			return "", nil
		}
		return *path, os.WriteFile(*path, []byte(report), 0o644)
	}
}

// generatedBy is the line a report carries under its title: the command
// that regenerates the committed results/<file>, with the named flags as
// they were given (an unset boolean or empty one left out).
func (c *ctx) generatedBy(file string, flags ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generated by `go run ./cmd/repro %s", c.fs.Name())
	for _, name := range flags {
		switch v := c.fs.Lookup(name).Value.String(); v {
		case "", "false":
		case "true":
			fmt.Fprintf(&b, " -%s", name)
		default:
			fmt.Fprintf(&b, " -%s %s", name, v)
		}
	}
	fmt.Fprintf(&b, " -o results/%s`.\n\n", file)
	return b.String()
}

func (c *ctx) cache() *string {
	return c.fs.String("cache", advisor.DefaultCacheDir, "advisor result-cache directory (empty disables)")
}

// engine gives an Evaluator whose query-vocabulary drivers run through the
// placement-advisor engine on the -cache directory — cells a previous run
// or an advisord server sharing it evaluated are read back, not simulated
// — and the function that prints the cache-stats footer to stderr. With no
// directory it is the in-memory memo, which shares a cell between the
// drivers of one run, and the footer prints nothing.
func (c *ctx) engine(cacheDir string) (ev *core.Evaluator, footer func()) {
	if cacheDir == "" {
		return core.NewEvaluator(nil), func() {}
	}
	reg := telemetry.NewRegistry()
	eng := advisor.NewEngine(advisor.Options{CacheDir: cacheDir, Registry: reg})
	return core.NewEvaluator(eng.RunQuery), func() {
		fmt.Fprintf(c.stderr, "advisor cache: %d hits, %d misses (%d simulated)\n",
			reg.Get(advisor.CounterCacheHit), reg.Get(advisor.CounterCacheMiss), reg.Get(advisor.CounterSimRuns))
	}
}

// profiled registers -cpuprofile and -memprofile. The returned wrap runs
// body under a CPU profile and writes a heap profile after it, each only
// when its file was named.
func (c *ctx) profiled() (wrap func(body func() error) error) {
	cpu := c.fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mem := c.fs.String("memprofile", "", "write a heap profile after the run to this file")
	return func(body func() error) error {
		if err := withCPUProfile(*cpu, body); err != nil || *mem == "" {
			return err
		}
		runtime.GC()
		var heap bytes.Buffer
		if err := pprof.WriteHeapProfile(&heap); err != nil {
			return err
		}
		return os.WriteFile(*mem, heap.Bytes(), 0o644)
	}
}

// withCPUProfile runs body under a CPU profile written to path, or
// unprofiled when path is empty. The file is created first, so an
// unwritable path fails before body runs.
func withCPUProfile(path string, body func() error) error {
	if path == "" {
		return body()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // for the error paths; the success path checks Close
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	err = body()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return f.Close()
}

// list parses a comma-separated flag value item by item, trimming the
// space around each. An item given twice is an error: a sweep would run
// it twice and an average would count it twice.
func list[T comparable](s string, item func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := item(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, v) {
			return nil, fmt.Errorf("%q is listed twice", strings.TrimSpace(part))
		}
		out = append(out, v)
	}
	return out, nil
}

func workloadName(s string) (string, error) {
	_, err := workloads.ByName(s)
	return s, err
}

// atLeast parses an integer flag value no smaller than min.
func atLeast(min int) func(string) (int, error) {
	return func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n < min {
			return 0, fmt.Errorf("want an integer >= %d", min)
		}
		return n, nil
	}
}

// fraction parses a flag value in [0,1].
func fraction(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(f >= 0 && f <= 1) {
		return 0, errors.New("want a fraction in [0,1]")
	}
	return f, nil
}

func parseTier(s string) (memsim.TierID, error) {
	n, err := strconv.Atoi(s)
	if err != nil || !memsim.TierID(n).Valid() {
		return 0, fmt.Errorf("invalid tier %q", s)
	}
	return memsim.TierID(n), nil
}
