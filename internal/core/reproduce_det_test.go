package core

import (
	"bytes"
	"testing"
)

// TestReproduceByteIdenticalAcrossWorkerCounts renders a narrowed full
// report twice — once with the evaluator's workers seam forcing 1 cell
// worker and 1 phase-1 worker in every cell, once with 8 of each — and
// requires the bytes to match exactly. The chunk shuffle passes
// block-manager-owned chunk sets by reference between map and reduce
// tasks, so this is the end-to-end proof that chunk residency, the copy
// ledger, and every charge sequence are independent of how task compute
// interleaves, and that the evaluator's fan-out merges by request index.
// sort covers the range-partitioned chunk path (sampling job + sort
// shuffle), pagerank the cogroup/join path.
func TestReproduceByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-report determinism sweep skipped in -short")
	}
	render := func(workers int) string {
		ev := NewEvaluator(nil)
		ev.workers = workers
		var buf bytes.Buffer
		ev.Reproduce(&buf, ReproduceOptions{
			Workloads:   []string{"sort", "pagerank"},
			SkipScaling: true,
		})
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("full report differs between 1 and 8 workers (len %d vs %d)", len(seq), len(par))
	}
	if len(seq) == 0 {
		t.Fatal("report rendered empty")
	}
}

// TestReproduceByteIdenticalWithoutMemo is the in-tree twin of the
// benchmark's digest check, on the benchmark's roster: a report whose
// every cell is simulated afresh (the memo bypassed) must equal, byte for
// byte, the report that reads repeated cells back — Figure 3's cap-1.0
// row, Figure 4's baseline and 1x40 square, a third of Figure 5, all of
// Figure 6 and the predictor, and the extensions' membind cells.
func TestReproduceByteIdenticalWithoutMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the reduced report twice")
	}
	render := func(ev *Evaluator) string {
		var buf bytes.Buffer
		ev.Reproduce(&buf, ReproduceOptions{Workloads: []string{"als", "lda"}})
		return buf.String()
	}
	memo := NewEvaluator(nil)
	bypass := NewEvaluator(nil)
	bypass.noMemo = true
	if with, without := render(memo), render(bypass); with != without {
		t.Fatalf("report differs with and without the memo (len %d vs %d)", len(with), len(without))
	}
	// 175 cell requests on this roster, 99 distinct cells.
	if got := len(memo.cells); got != 99 {
		t.Errorf("memo simulated %d distinct cells, want 99", got)
	}
	if len(bypass.cells) != 0 {
		t.Errorf("bypassed memo holds %d entries", len(bypass.cells))
	}
}
