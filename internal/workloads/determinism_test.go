package workloads

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/executor"
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

// TestDatasetPartitionsByteIdentical generates the sort workload's input
// twice — and once more with phase-1 parallelism — and requires the
// partitioned dataset to render byte-identically: partition boundaries,
// record order within partitions, and record contents. It uses
// GenerateBatch + genTextRecords, the exact production path of the text
// workloads.
func TestDatasetPartitionsByteIdentical(t *testing.T) {
	build := func(taskParallelism int) string {
		conf := cluster.DefaultConf()
		conf.CoresPerExecutor = 8
		conf.DefaultParallelism = 8
		conf.TaskParallelism = taskParallelism
		app := cluster.New(conf)
		data := rdd.GenerateBatch(app, "det-input", 4_000, 0, func(r *rand.Rand, _, _ int, out []TextRecord) {
			genTextRecords(r, out)
		})
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
