package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/rdd"
	"repro/internal/telemetry"
)

// HostLedger is an Evaluator's host-side account: what answering its
// batches cost the Go process, never what a simulated run measured. It
// counts cells and generated partitions and times each batch, and the
// generation inside it, with telemetry stopwatches. Nothing in it enters a
// RunResult or the memo, and its counts are the same at every worker
// count; only the seconds vary from run to run.
type HostLedger struct {
	// Batches counts eval calls (one per driver request list) and
	// BatchSeconds sums their wall-clock spans.
	Batches      int
	BatchSeconds float64
	// CellsAsked counts cell requests; CellsSimulated the simulations
	// they took: memo misses plus every request for an unkeyable cell.
	CellsAsked, CellsSimulated int
	// Gen is the generated-partition tally per generator, ordered by id,
	// summed over the batches' stores; GenSeconds the wall-clock time
	// spent filling them.
	Gen        []rdd.GenCount
	GenSeconds float64
}

// account folds one finished batch into the ledger: asked requests, the
// simulated cells among them and the stopwatch started when the batch
// began. Each cell group books its own generation as it ends (leave).
func (e *Evaluator) account(asked, simulated int, sw *telemetry.Stopwatch) {
	seconds := sw.Seconds()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ledger.Batches++
	e.ledger.BatchSeconds += seconds
	e.ledger.CellsAsked += asked
	e.ledger.CellsSimulated += simulated
}

// HostLedger returns the ledger of every batch e has answered so far.
func (e *Evaluator) HostLedger() HostLedger {
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.ledger
	l.Gen = slices.Clone(l.Gen)
	return l
}

// GenTotal sums the per-generator tallies.
func (l HostLedger) GenTotal() rdd.GenCount {
	total := rdd.GenCount{Gen: "all"}
	for _, c := range l.Gen {
		total.Asked += c.Asked
		total.Filled += c.Filled
		total.Bytes += c.Bytes
	}
	return total
}

// String renders the ledger as one line: batches, cells, generated
// partitions asked and filled in total, then per generator.
func (l HostLedger) String() string {
	var b strings.Builder
	t := l.GenTotal()
	fmt.Fprintf(&b, "host ledger: %d batches in %.2fs · cells %d asked, %d simulated · generated partitions %d asked, %d filled, %.1f MB in %.2fs",
		l.Batches, l.BatchSeconds, l.CellsAsked, l.CellsSimulated, t.Asked, t.Filled, float64(t.Bytes)/1e6, l.GenSeconds)
	for _, c := range l.Gen {
		fmt.Fprintf(&b, " · %s %d/%d %.1f MB", c.Gen, c.Asked, c.Filled, float64(c.Bytes)/1e6)
	}
	return b.String()
}
