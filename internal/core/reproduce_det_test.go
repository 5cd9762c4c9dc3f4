package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

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

// genCounts is a ledger's count side: what must not depend on the worker
// count. PeakStores does, and is checked on its own.
func genCounts(l HostLedger) string {
	l.BatchSeconds, l.GenSeconds, l.DerivedSeconds, l.PeakStores = 0, 0, 0, 0
	return fmt.Sprintf("%+v", l)
}

// TestReproduceByteIdenticalAcrossWorkerCounts renders the whole report
// twice — once with the evaluator's workers seam forcing 1 cell worker and
// 1 phase-1 worker in every cell, once with 8 of each — and requires both
// to equal results/full_report.txt byte for byte. The chunk shuffle passes
// block-manager-owned chunk sets by reference between map and reduce
// tasks, and the cells of an input group share generated input pages, so
// this is the end-to-end proof that chunk residency, the copy ledger, page
// sharing and every charge sequence are independent of how task compute
// interleaves, and that the evaluator's fan-out merges by request index
// whatever order it ran the cells in.
//
// Every shared generated page is checksummed when it is filled and again
// when its group of cells ends, so a consumer anywhere in the report that
// writes a record it reads panics here. The host ledger's counts are the
// same at both worker counts: the report is one batch, which asks for
// 24,552 generated partitions and fills 3,246, one per distinct partition
// of a workload's input in the whole report. The pin counts asks, not
// fills: a sort asks for each partition from both of its jobs. Apart from
// them, lda's 3,300 sweep tasks ask for 450 distinct lda-sweep pages, and
// each is sampled once. Cells run in input-group order, so one worker has
// one group store open at a time, and eight have at most eight.
func TestReproduceByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full report twice")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "full_report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var ledgers []HostLedger
	for _, workers := range []int{1, 8} {
		ev := NewEvaluator(nil)
		ev.workers, ev.checkPages = workers, true
		var buf bytes.Buffer
		ev.Reproduce(&buf, ReproduceOptions{Seed: 1})
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%d workers: the report differs from results/full_report.txt", workers)
		}
		l := ev.HostLedger()
		if peak := l.PeakStores; peak < 1 || peak > workers || workers == 1 && peak != 1 {
			t.Errorf("%d workers: %d group stores open at once, want 1 at 1 worker and at most 8 at 8", workers, peak)
		}
		ledgers = append(ledgers, l)
	}
	if a, b := genCounts(ledgers[0]), genCounts(ledgers[1]); a != b {
		t.Errorf("ledger counts differ between 1 and 8 workers:\n%s\n%s", a, b)
	}
	l := ledgers[0]
	if total := sumCounts(l.Gen); l.Batches != 1 || total.Asked != 24_552 || total.Filled != 3_246 {
		t.Errorf("%d batches, %d partitions asked, %d filled; want 1, 24552, 3246", l.Batches, total.Asked, total.Filled)
	}
	checkSweeps(t, l)
}

// checkSweeps pins lda's derived pages on a report: 3,300 sweep tasks
// over 450 distinct sweeps, each sampled once.
func checkSweeps(t *testing.T, l HostLedger) {
	t.Helper()
	if d := l.Derived; len(d) != 1 || d[0].Gen != "lda-sweep" || d[0].Asked != 3_300 || d[0].Filled != 450 {
		t.Errorf("derived pages %+v, want lda-sweep 3300 asked, 450 filled", d)
	}
}

// TestReproduceRosterLedger is the benchmark's roster, Figure 4 included,
// at 1 and 8 workers: byte-identical reports, equal ledger counts, and
// lda's 660 asks for 90 distinct lda-docs partitions in the report filled
// once each (als generates nothing), and its 3,300 sweep tasks' asks for
// 450 distinct lda-sweep pages, sampled once each.
func TestReproduceRosterLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the reduced report twice")
	}
	var reports []string
	var ledgers []HostLedger
	for _, workers := range []int{1, 8} {
		ev := NewEvaluator(nil)
		ev.workers, ev.checkPages = workers, true
		var buf bytes.Buffer
		ev.Reproduce(&buf, ReproduceOptions{Workloads: []string{"als", "lda"}})
		reports = append(reports, buf.String())
		ledgers = append(ledgers, ev.HostLedger())
	}
	if reports[0] != reports[1] {
		t.Fatal("report differs between 1 and 8 workers")
	}
	if a, b := genCounts(ledgers[0]), genCounts(ledgers[1]); a != b {
		t.Errorf("ledger counts differ between 1 and 8 workers:\n%s\n%s", a, b)
	}
	if gen := ledgers[0].Gen; len(gen) != 1 || gen[0].Gen != "lda-docs" || gen[0].Asked != 660 || gen[0].Filled != 90 {
		t.Errorf("generated partitions %+v, want lda-docs 660 asked, 90 filled", gen)
	}
	checkSweeps(t, ledgers[0])
}
