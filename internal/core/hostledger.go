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
// counts cells, generated partitions and derived pages and times each
// batch, and the generation and derivation inside it, with telemetry
// stopwatches. Nothing in it enters a
// RunResult or the memo, and its counts are the same at every worker
// count; only the seconds vary from run to run.
type HostLedger struct {
	// Batches counts eval calls (one per driver request list, one per
	// Reproduce) and BatchSeconds sums their wall-clock spans.
	Batches      int
	BatchSeconds float64
	// CellsAsked counts cell requests; CellsSimulated the simulations
	// they took: memo misses plus every request for an unkeyable cell.
	CellsAsked, CellsSimulated int
	// PeakStores is the most input-group stores open at once. Cells run
	// in input-group order, so it stays near the worker count however
	// many groups a batch holds.
	PeakStores int
	// Gen is the generated-partition tally per generator, ordered by id,
	// summed over the batches' stores; GenSeconds the wall-clock time
	// spent filling them.
	Gen        []rdd.GenCount
	GenSeconds float64
	// Derived is the derived-page tally per derivation (lda's Gibbs
	// sweeps), ordered by id, and DerivedSeconds the time spent filling
	// them: a derivation is compute, not data generation.
	Derived        []rdd.GenCount
	DerivedSeconds float64
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
	l.Derived = slices.Clone(l.Derived)
	return l
}

// sumCounts sums per-generator or per-derivation tallies.
func sumCounts(counts []rdd.GenCount) rdd.GenCount {
	total := rdd.GenCount{Gen: "all"}
	for _, c := range counts {
		total.Asked += c.Asked
		total.Filled += c.Filled
		total.Bytes += c.Bytes
	}
	return total
}

// String renders the ledger as one line: batches, cells, the peak of open
// stores, then generated partitions and derived pages, each asked and
// filled in total and per generator or derivation.
func (l HostLedger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host ledger: %d batches in %.2fs · cells %d asked, %d simulated · peak %d group stores",
		l.Batches, l.BatchSeconds, l.CellsAsked, l.CellsSimulated, l.PeakStores)
	group := func(name string, counts []rdd.GenCount, seconds float64) {
		t := sumCounts(counts)
		fmt.Fprintf(&b, " · %s %d asked, %d filled, %.1f MB in %.2fs", name, t.Asked, t.Filled, float64(t.Bytes)/1e6, seconds)
		for _, c := range counts {
			fmt.Fprintf(&b, " · %s %d/%d %.1f MB", c.Gen, c.Asked, c.Filled, float64(c.Bytes)/1e6)
		}
	}
	group("generated partitions", l.Gen, l.GenSeconds)
	group("derived pages", l.Derived, l.DerivedSeconds)
	return b.String()
}
