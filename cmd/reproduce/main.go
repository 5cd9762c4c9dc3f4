// Command reproduce regenerates the paper's entire evaluation — every
// table and figure plus the extension studies — in one run, writing the
// full report to stdout (or a file with -o). Expect about 4.2 s wall at
// GOMAXPROCS=2 on a shared 2-vCPU Xeon with go1.24 (3.4–5.7 s over 30
// runs; 7.1–8.7 s at GOMAXPROCS=1): the report is planned whole and
// answered in one batch, every cell is simulated once and shared between
// the figures, and the cells that read the same input share its generated
// partitions and lda's Gibbs sweeps for the whole report. Progress lines
// and, last, the host ledger go to stderr: 1 batch, 619 cells asked and
// 355 simulated, the peak of open input-group stores, 24,552 generated
// partitions asked and 3,246 filled, and 3,300 derived pages asked and
// 450 filled.
//
// Usage:
//
//	reproduce [-o report.txt] [-seed 1] [-skip-scaling]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func main() {
	out := flag.String("o", "", "write the report to this file instead of stdout")
	seed := flag.Int64("seed", 1, "experiment seed")
	skipScaling := flag.Bool("skip-scaling", false, "skip the Figure 4 grids (the slowest part)")
	flag.Parse()

	f := os.Stdout
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fail(err)
		}
	}
	// A failed write sticks in w, so Flush reports the first one.
	w := bufio.NewWriter(f)

	// Wall-clock progress goes through the telemetry stopwatch (the
	// sanctioned wrapper) and only to stderr: the report bytes on w are a
	// pure function of the seed.
	sw := telemetry.StartStopwatch()
	e := core.NewEvaluator(nil)
	e.Reproduce(w, core.ReproduceOptions{
		Seed:        *seed,
		SkipScaling: *skipScaling,
		Progress: func(name string) {
			fmt.Fprintf(os.Stderr, "%s %s done\n", sw.Stamp(), name)
		},
	})
	if err := w.Flush(); err != nil {
		fail(err)
	}
	if *out != "" {
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s full reproduction complete\n", sw.Stamp())
	fmt.Fprintf(os.Stderr, "%s %s\n", sw.Stamp(), e.HostLedger())
}

// fail reports err on stderr and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
