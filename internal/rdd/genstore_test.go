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
// what a source on an unshared store generates, and the tally counts every ask but
// one fill per partition.
func TestGenStoreSharesPagesBetweenApps(t *testing.T) {
	store := rdd.NewGenStore(false)
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
	store := rdd.NewGenStore(false)
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
	store := rdd.NewGenStore(false)
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
	store := rdd.NewGenStore(true)
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

// An application from cluster.New reads through a store of its own that
// keeps its pages: a SortBy over a registered generator asks it for every
// partition in each of the sort's two jobs and fills each partition once.
// ShareGenerated(nil) keeps that store.
func TestAppReadsThroughItsOwnGenStore(t *testing.T) {
	app := newApp()
	own := app.GenStore()
	if own == nil {
		t.Fatal("an App from cluster.New has no GenStore")
	}
	if app.ShareGenerated(nil); app.GenStore() != own {
		t.Fatal("ShareGenerated(nil) replaced the App's own store")
	}
	const parts = 8
	fresh := rdd.Collect(rdd.SortBy(vecGen.Source(newApp(), "x", vecParams{4}, 64, parts), func(v []int) int { return v[0] }, 4))
	if got := rdd.Collect(rdd.SortBy(vecGen.Source(app, "x", vecParams{4}, 64, parts), func(v []int) int { return v[0] }, 4)); !reflect.DeepEqual(got, fresh) {
		t.Fatal("the sort differs between two applications of one seed")
	}
	if counts, _ := own.Counts(); len(counts) != 1 || counts[0].Asked != 2*parts || counts[0].Filled != parts {
		t.Fatalf("counts %+v, want test-vec alone with %d asked and %d filled", counts, 2*parts, parts)
	}
}

// scaledPage is a derived page: a partition's records, each scaled.
type scaledPage struct{ Vals []int }

func (p scaledPage) ByteSize() int64 { return int64(24 + 8*len(p.Vals)) }

// scaleDer multiplies a partition's first column by By and the seed; By
// is the parameter its fill reads, so it is part of the store's key.
type scaleParams struct{ By int }

var scaleDer = rdd.Derivation[scaledPage, [][]int, scaleParams]{ID: "test-scale",
	Fill: func(p scaleParams, seed int64, _ int, in [][]int) scaledPage {
		out := scaledPage{Vals: make([]int, len(in))}
		for i, rec := range in {
			out.Vals[i] = rec[0] * p.By * int(seed)
		}
		return out
	}}

// scaled derives every partition of src's page of scaleDer on app.
func scaled(app *cluster.App, src *rdd.RDD[[]int], by int) []scaledPage {
	d := scaleDer.Bind(app, scaleParams{by}, 64, 8)
	return rdd.Collect(rdd.MapPartitions(src, func(_ *executor.TaskContext, part int, in [][]int) []scaledPage {
		return []scaledPage{d.Page(part, in)}
	}))
}

// Two applications sharing a store read one derived page per partition,
// what a run on an unshared store derives; the derived pages are tallied apart from
// the generated partitions they were derived from, and a params change
// derives its own pages.
func TestDerivedPagesAreSharedAndTalliedApart(t *testing.T) {
	store := rdd.NewGenStore(false)
	apps := []*cluster.App{sharedApp(store), sharedApp(store)}
	a := scaled(apps[0], vecGen.Source(apps[0], "a", vecParams{4}, 64, 8), 3)
	b := scaled(apps[1], vecGen.Source(apps[1], "b", vecParams{4}, 64, 8), 3)
	for i := range a {
		if &a[i].Vals[0] != &b[i].Vals[0] {
			t.Fatalf("partition %d: the second app derived its own page", i)
		}
	}
	fresh := newApp()
	if want := scaled(fresh, vecGen.Source(fresh, "c", vecParams{4}, 64, 8), 3); !reflect.DeepEqual(a, want) {
		t.Fatal("shared derived pages differ from freshly derived ones")
	}
	other := sharedApp(store)
	if by4 := scaled(other, vecGen.Source(other, "d", vecParams{4}, 64, 8), 4); reflect.DeepEqual(by4, a) {
		t.Fatal("By 4 read By 3's pages")
	}
	gen, _ := store.Counts()
	derived, _ := store.DerivedCounts()
	if len(gen) != 1 || gen[0].Gen != "test-vec" || gen[0].Asked != 24 || gen[0].Filled != 8 {
		t.Errorf("generated %+v, want test-vec alone, 24 asked and 8 filled", gen)
	}
	if len(derived) != 1 || derived[0].Gen != "test-scale" || derived[0].Asked != 24 || derived[0].Filled != 16 || derived[0].Bytes <= 0 {
		t.Errorf("derived %+v, want test-scale alone, 24 asked, 16 filled and positive bytes", derived)
	}
}

// The checking seam catches a reader that writes a derived page.
func TestGenStoreVerifyCatchesAWrittenDerivedPage(t *testing.T) {
	store := rdd.NewGenStore(true)
	app := sharedApp(store)
	pages := scaled(app, vecGen.Source(app, "x", vecParams{4}, 64, 8), 3)
	if err := store.Verify(); err != nil {
		t.Fatalf("read-only reader flagged: %v", err)
	}
	pages[2].Vals[0]++
	err := store.Verify()
	if err == nil || !strings.Contains(err.Error(), "derived page test-scale") {
		t.Fatalf("Verify = %v, want the written test-scale page", err)
	}
}

// Asking for a derived page the store already holds allocates nothing.
func TestDerivedHitAllocatesNothing(t *testing.T) {
	pass := rdd.Derivation[scaledPage, []int, scaleParams]{ID: "test-pass",
		Fill: func(_ scaleParams, _ int64, _ int, in []int) scaledPage { return scaledPage{Vals: in} }}
	in := []int{1, 2, 3}
	d := pass.Bind(newApp(), scaleParams{2}, 64, 8)
	d.Page(1, in)
	var page scaledPage
	if n := testing.AllocsPerRun(100, func() { page = d.Page(1, in) }); n != 0 || len(page.Vals) != 3 {
		t.Errorf("%.1f allocations per ask of a filled page, want 0", n)
	}
}
