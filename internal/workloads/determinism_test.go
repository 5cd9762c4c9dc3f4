package workloads

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/ml"
	"repro/internal/rdd"
)

// genTextRecord draws one record the way genTextRecords draws each of
// its batch, with a key allocation of its own: the reference the batch
// path is compared against.
func genTextRecord(r *rand.Rand) TextRecord {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	key := make([]byte, 10)
	for i := range key {
		key[i] = alphabet[r.Intn(len(alphabet))]
	}
	return TextRecord{Key: string(key), Payload: r.Int63()}
}

// TestGeneratorsDeterministic pins the audit result that every dataset
// generator draws only from an explicitly seeded source: the same seed
// must yield byte-identical records on repeated runs.
func TestGeneratorsDeterministic(t *testing.T) {
	cases := map[string]func(seed int64) string{
		"text": func(seed int64) string {
			r := rand.New(rand.NewSource(seed))
			out := make([]TextRecord, 64)
			for i := range out {
				out[i] = genTextRecord(r)
			}
			return fmt.Sprintf("%#v", out)
		},
		"textBatch": func(seed int64) string {
			r := rand.New(rand.NewSource(seed))
			out := make([]TextRecord, 64)
			genTextRecords(r, out)
			return fmt.Sprintf("%#v", out)
		},
		"ratings": func(seed int64) string {
			return fmt.Sprintf("%#v", genRatings(rand.New(rand.NewSource(seed)), 50, 40, 200, 4))
		},
		"pages": func(seed int64) string {
			r := rand.New(rand.NewSource(seed))
			out := make([]Page, 32)
			for i := range out {
				out[i] = genPage(r, 3, 100, 20)
			}
			return fmt.Sprintf("%#v", out)
		},
		"examples": func(seed int64) string {
			r := rand.New(rand.NewSource(seed))
			out := make([]Example, 32)
			for i := range out {
				out[i] = genExample(r, i, 6, 8)
			}
			return fmt.Sprintf("%#v", out)
		},
		"webpages": func(seed int64) string {
			r := rand.New(rand.NewSource(seed))
			out := make([]WebPage, 32)
			for i := range out {
				out[i] = genWebPage(r, i, 500, 12)
			}
			return fmt.Sprintf("%#v", out)
		},
		"ldadocs": func(seed int64) string {
			r := rand.New(rand.NewSource(seed))
			out := make([]LDADoc, 32)
			for i := range out {
				out[i] = genLDADoc(r, 100, 5, 30)
			}
			return fmt.Sprintf("%#v", out)
		},
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			if gen(7) != gen(7) {
				t.Errorf("%s generator is not deterministic for a fixed seed", name)
			}
			if gen(7) == gen(8) {
				t.Errorf("%s generator ignores its seed", name)
			}
		})
	}
}

// TestBatchTextGenMatchesPerRecord pins the arena generator's contract:
// genTextRecords must draw the exact PRNG sequence repeated genTextRecord
// calls would (10 key bytes then the payload, per record), produce
// identical records, and leave the source in the identical state — so the
// sort/repartition switch to the batch path cannot move a single byte of
// the frozen ledger.
func TestBatchTextGenMatchesPerRecord(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		r1 := rand.New(rand.NewSource(42))
		r2 := rand.New(rand.NewSource(42))
		want := make([]TextRecord, n)
		for i := range want {
			want[i] = genTextRecord(r1)
		}
		got := make([]TextRecord, n)
		genTextRecords(r2, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d record %d: batch %+v, per-record %+v", n, i, got[i], want[i])
			}
		}
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("n=%d: PRNG state diverges after generation (%d vs %d)", n, a, b)
		}
	}
}

// scriptedSource replays fixed Int63 values, so a test can feed a
// generator draws a seeded source would almost never produce.
type scriptedSource struct {
	vals []int64
	pos  int
}

func (s *scriptedSource) Int63() int64 {
	v := s.vals[s.pos%len(s.vals)]
	s.pos++
	return v
}

func (s *scriptedSource) Seed(int64) {}

// TestBatchTextGenRejectsLikeIntn drives genTextRecords' inlined Int31n
// through its rejection branch, which a seeded source reaches with
// probability ~1e-8 per draw: about a third of the scripted draws land
// above the bound (the largest possible draw and the bound's successor
// included), and the batch must still equal per-record r.Intn(36) record
// for record and leave the source at the same position.
func TestBatchTextGenRejectsLikeIntn(t *testing.T) {
	const maxDraw = (1<<31 - 1) - (1<<31)%36
	r := rand.New(rand.NewSource(3))
	vals := []int64{maxDraw << 32, (maxDraw+1)<<32 | 1<<31, 1<<63 - 1, 0}
	for len(vals) < 500 {
		if r.Intn(3) == 0 {
			vals = append(vals, (maxDraw+1+r.Int63n(1<<31-maxDraw-1))<<32|r.Int63n(1<<32))
		} else {
			vals = append(vals, r.Int63())
		}
	}
	const n = 40
	per, batch := &scriptedSource{vals: vals}, &scriptedSource{vals: vals}
	rPer, rBatch := rand.New(per), rand.New(batch)
	want := make([]TextRecord, n)
	for i := range want {
		want[i] = genTextRecord(rPer)
	}
	got := make([]TextRecord, n)
	genTextRecords(rBatch, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: batch %+v, per-record %+v", i, got[i], want[i])
		}
	}
	if per.pos != batch.pos {
		t.Fatalf("batch consumed %d draws, per-record %d", batch.pos, per.pos)
	}
	if per.pos <= n*11 {
		t.Fatalf("%d draws for %d records: the rejection branch never ran", per.pos, n)
	}
}

// TestLDADocsReseededMatchesFreshSources pins genLDADocs' one reseeded
// *rand.Rand per task against a fresh rand.NewSource(seed+i) per
// document: the same documents, record for record, and the partition's
// own stream left at the same position.
func TestLDADocsReseededMatchesFreshSources(t *testing.T) {
	p := ldaSizes[Large]
	const seed, lo, n = 42, 300, 100
	rWant, rGot := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	want := make([]*ml.Document, n)
	for j := range want {
		raw := genLDADoc(rWant, p.Vocab, p.Topics, p.DocLen)
		want[j] = ml.InitDocument(raw.Words, p.Topics, rand.New(rand.NewSource(seed+int64(lo+j))))
	}
	got := make([]*ml.Document, n)
	genLDADocs(rGot, seed, lo, p, got)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reseeded generation differs from per-document sources")
	}
	if a, b := rWant.Int63(), rGot.Int63(); a != b {
		t.Fatalf("partition stream diverges after generation (%d vs %d)", a, b)
	}
}

// TestDatasetPartitionsByteIdentical generates the sort workload's input
// twice — and once more with phase-1 parallelism — and requires the
// partitioned dataset to render byte-identically: partition boundaries,
// record order within partitions, and record contents. It uses
// textRecordsGen, the exact production path of the text workloads.
func TestDatasetPartitionsByteIdentical(t *testing.T) {
	build := func(taskParallelism int) string {
		conf := cluster.DefaultConf()
		conf.CoresPerExecutor = 8
		conf.DefaultParallelism = 8
		conf.TaskParallelism = taskParallelism
		app := cluster.New(conf)
		data := textRecordsGen.Source(app, "det-input", struct{}{}, 4_000, 0)
		parts := rdd.Collect(rdd.MapPartitions(data, func(_ *executor.TaskContext, _ int, in []TextRecord) [][]TextRecord {
			return [][]TextRecord{in}
		}))
		return fmt.Sprintf("%#v", parts)
	}
	seq := build(1)
	if again := build(1); again != seq {
		t.Fatal("sequential dataset generation is not byte-identical across runs")
	}
	if par := build(8); par != seq {
		t.Fatal("parallel (8-worker) dataset generation differs from sequential")
	}
}

// TestGeneratorKeysOnCapturedParams: sources of one registered generator
// whose params differ only in what the fill reads beside n — pagerank's
// MaxDegree, bayes' Vocab and Classes — read their own pages from a shared
// store, each equal to what a source on an unshared store generates.
func TestGeneratorKeysOnCapturedParams(t *testing.T) {
	store := rdd.NewGenStore(false)
	app := func(shared bool) *cluster.App {
		conf := cluster.DefaultConf()
		conf.CoresPerExecutor, conf.DefaultParallelism = 8, 8
		a := cluster.New(conf)
		if shared {
			a.ShareGenerated(store)
		}
		return a
	}
	pr := pagerankSizes[Small]
	pr2 := pr
	pr2.MaxDegree++
	by := bayesSizes[Small]
	by2 := by
	by2.Vocab, by2.Classes = by.Vocab/2, by.Classes/2
	graphs := [][]WebPage{
		rdd.Collect(webGraphGen.Source(app(true), "web-graph", pr, pr.Pages, 0)),
		rdd.Collect(webGraphGen.Source(app(true), "web-graph", pr2, pr2.Pages, 0)),
		rdd.Collect(webGraphGen.Source(app(false), "web-graph", pr2, pr2.Pages, 0)),
	}
	corpora := [][]Page{
		rdd.Collect(bayesCorpusGen.Source(app(true), "bayes-corpus", by, by.Pages, 0)),
		rdd.Collect(bayesCorpusGen.Source(app(true), "bayes-corpus", by2, by2.Pages, 0)),
		rdd.Collect(bayesCorpusGen.Source(app(false), "bayes-corpus", by2, by2.Pages, 0)),
	}
	if reflect.DeepEqual(graphs[0], graphs[1]) || !reflect.DeepEqual(graphs[1], graphs[2]) {
		t.Error("web-graph: a MaxDegree change read the other parameters' pages")
	}
	if reflect.DeepEqual(corpora[0], corpora[1]) || !reflect.DeepEqual(corpora[1], corpora[2]) {
		t.Error("bayes-corpus: a Vocab and Classes change read the other parameters' pages")
	}
	counts, _ := store.Counts()
	for _, c := range counts {
		if c.Filled != 2*8 || c.Asked != 2*8 {
			t.Errorf("%s: %d asked, %d filled; want 16 of each (two keys of 8 partitions)", c.Gen, c.Asked, c.Filled)
		}
	}
	if len(counts) != 2 {
		t.Errorf("tallied %d generators, want web-graph and bayes-corpus", len(counts))
	}
}
