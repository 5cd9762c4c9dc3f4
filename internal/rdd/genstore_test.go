package rdd_test

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/rdd"
)

// vecGen draws Width ints per record; Width is the parameter its fill
// reads, so it must be part of the store's key.
type vecParams struct{ Width int }

var vecGen = rdd.Generator[[]int, vecParams]{ID: "test-vec",
	Fill: func(p vecParams, _ int64, r *rand.Rand, _, _ int, out [][]int) {
		for i := range out {
			out[i] = make([]int, p.Width)
			for j := range out[i] {
				out[i][j] = r.Intn(1000)
			}
		}
	}}

func sharedApp(store *rdd.GenStore) *cluster.App {
	app := newApp()
	app.ShareGenerated(store)
	return app
}

// firstRecords collects the first record of every partition, by identity.
func firstRecords(src *rdd.RDD[[]int]) []*int {
	return rdd.Collect(rdd.MapPartitions(src, func(_ *executor.TaskContext, _ int, in [][]int) []*int {
		return []*int{&in[0][0]}
	}))
}

// Two applications sharing a store read one page per partition: the
// second source's records are the first's Go values, its contents are
// what a store-less source generates, and the tally counts every ask but
// one fill per partition.
func TestGenStoreSharesPagesBetweenApps(t *testing.T) {
	store := rdd.NewGenStore(3, false)
	a := firstRecords(vecGen.Source(sharedApp(store), "a", vecParams{4}, 64, 8))
	b := firstRecords(vecGen.Source(sharedApp(store), "b", vecParams{4}, 64, 8))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("partition %d: the second app generated its own page", i)
		}
	}
	fresh := rdd.Collect(vecGen.Source(newApp(), "c", vecParams{4}, 64, 8))
	if got := rdd.Collect(vecGen.Source(sharedApp(store), "d", vecParams{4}, 64, 8)); !reflect.DeepEqual(got, fresh) {
		t.Fatal("shared records differ from freshly generated ones")
	}
	counts, _ := store.Counts()
	if want := []rdd.GenCount{{Gen: "test-vec", Asked: 24, Filled: 8, Bytes: counts[0].Bytes}}; !reflect.DeepEqual(counts, want) || counts[0].Bytes <= 0 {
		t.Fatalf("counts %+v, want %+v with positive bytes", counts, want)
	}
}

// Sources that differ only in a parameter the fill reads get their own
// pages, and so do sources that differ in seed or partitioning.
func TestGenStoreKeysOnParamsSeedAndParts(t *testing.T) {
	store := rdd.NewGenStore(4, false)
	base := rdd.Collect(vecGen.Source(sharedApp(store), "x", vecParams{4}, 64, 8))
	if wide := rdd.Collect(vecGen.Source(sharedApp(store), "x", vecParams{5}, 64, 8)); len(wide[0]) != 5 {
		t.Fatalf("width-5 source read width-%d records", len(wide[0]))
	}
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor, conf.DefaultParallelism, conf.Seed = 4, 8, 2
	reseeded := cluster.New(conf)
	reseeded.ShareGenerated(store)
	if other := rdd.Collect(vecGen.Source(reseeded, "x", vecParams{4}, 64, 8)); reflect.DeepEqual(other, base) {
		t.Fatal("seed 2 read seed 1's records")
	}
	if regrouped := rdd.Collect(vecGen.Source(sharedApp(store), "x", vecParams{4}, 64, 4)); reflect.DeepEqual(regrouped, base) {
		t.Fatal("4 partitions read the 8-partition pages")
	}
	if counts, _ := store.Counts(); counts[0].Filled != 8+8+8+4 {
		t.Fatalf("filled %d partitions, want 28 (four distinct sources)", counts[0].Filled)
	}
}

// Concurrent askers of one key wait for its one fill.
func TestGenStoreFillsEachKeyOnceUnderConcurrency(t *testing.T) {
	store := rdd.NewGenStore(8, false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rdd.Collect(vecGen.Source(sharedApp(store), "x", vecParams{3}, 64, 8))
		}()
	}
	wg.Wait()
	if counts, _ := store.Counts(); counts[0].Asked != 64 || counts[0].Filled != 8 {
		t.Fatalf("counts %+v, want 64 asked and 8 filled", counts[0])
	}
}

// The checking seam catches a consumer that writes the records it reads,
// and passes one that only reads them.
func TestGenStoreVerifyCatchesAWritingConsumer(t *testing.T) {
	store := rdd.NewGenStore(2, true)
	rdd.Collect(rdd.Map(vecGen.Source(sharedApp(store), "x", vecParams{4}, 64, 8), func(v []int) int { return v[0] }))
	if err := store.Verify(); err != nil {
		t.Fatalf("read-only consumer flagged: %v", err)
	}
	rdd.Collect(rdd.Map(vecGen.Source(sharedApp(store), "x", vecParams{4}, 64, 8), func(v []int) int {
		v[0]++
		return v[0]
	}))
	err := store.Verify()
	if err == nil || !strings.Contains(err.Error(), "test-vec") {
		t.Fatalf("Verify = %v, want the written test-vec page", err)
	}
}

// A store for one reader keeps nothing: it counts every ask and fill and
// hands each fill to its asker alone, the records a store-less source
// generates.
func TestGenStoreForOneReaderKeepsNoPage(t *testing.T) {
	store := rdd.NewGenStore(1, true)
	app := sharedApp(store)
	a := firstRecords(vecGen.Source(app, "x", vecParams{4}, 64, 8))
	b := firstRecords(vecGen.Source(app, "x", vecParams{4}, 64, 8))
	if a[0] == b[0] {
		t.Fatal("a one-reader store handed a page out twice")
	}
	fresh := rdd.Collect(vecGen.Source(newApp(), "x", vecParams{4}, 64, 8))
	if got := rdd.Collect(vecGen.Source(app, "x", vecParams{4}, 64, 8)); !reflect.DeepEqual(got, fresh) {
		t.Fatal("records differ from freshly generated ones")
	}
	if counts, _ := store.Counts(); counts[0].Asked != 24 || counts[0].Filled != 24 {
		t.Fatalf("counts %+v, want 24 asked and 24 filled", counts[0])
	}
}
