package workloads

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/ml"
	"repro/internal/rdd"
	"repro/internal/rng"
)

// ldaParams scales Table II's docs/vocabulary down 10x; topics follow the
// paper exactly (10/20/30).
type ldaParams struct {
	Docs, Vocab, Topics int
	DocLen, Iterations  int
}

var ldaSizes = [NumSizes]ldaParams{
	Tiny:  {Docs: 200, Vocab: 100, Topics: 10, DocLen: 50, Iterations: 5},
	Small: {Docs: 500, Vocab: 200, Topics: 20, DocLen: 50, Iterations: 5},
	Large: {Docs: 1000, Vocab: 300, Topics: 30, DocLen: 50, Iterations: 5},
}

// LDA is HiBench's Latent Dirichlet Allocation: distributed collapsed
// Gibbs sampling. Each iteration broadcasts the global topic-word counts,
// every partition resamples its documents' topic assignments (a stream of
// read-modify-writes on the count tables — by far the most write-intensive
// access pattern of the suite, which is why the paper's lda-large blows up
// on Optane DCPM), and the per-partition deltas are collected and applied
// on the driver.
type LDA struct{}

// NewLDA returns the workload.
func NewLDA() *LDA { return &LDA{} }

// Name implements Workload.
func (w *LDA) Name() string { return "lda" }

// Category implements Workload.
func (w *LDA) Category() Category { return MachineLearning }

// Describe implements Workload.
func (w *LDA) Describe(size Size) string {
	p := ldaSizes[size]
	return fmtParams("docs", p.Docs, "vocab", p.Vocab, "topics", p.Topics,
		"doclen", p.DocLen, "iters", p.Iterations)
}

// Run implements Workload.
func (w *LDA) Run(app *cluster.App, size Size) Summary {
	p := ldaSizes[size]

	// HiBench's LDA corpus ships in a handful of coarse partitions; with
	// so few concurrently runnable tasks, the core/executor grid barely
	// moves lda (the paper's Fig. 4c shows exactly that insensitivity).
	parts := 10
	if dp := app.DefaultParallelism(); dp < parts {
		parts = dp
	}
	docs := rdd.Cache(ldaDocsGen.Source(app, "lda-docs", p, p.Docs, parts))

	// Seed the global state from the initial assignments.
	state := ml.NewLDAState(p.Topics, p.Vocab, 50.0/float64(p.Topics), 0.01)
	for _, d := range rdd.Collect(docs) {
		for i, word := range d.Words {
			state.WordTopic[word*p.Topics+d.Topics[i]]++
			state.TopicTotal[d.Topics[i]]++
		}
	}

	// Each Gibbs sweep materializes a NEW cached generation of documents
	// (resampled clones, plus the sweep's count-table delta) instead of
	// mutating the cached inputs in place. Cached partitions must stay
	// immutable: if an executor crash drops a generation's block, lineage
	// recomputation replays the sweep chain from the surviving ancestor
	// and reproduces the exact assignments — in-place mutation would
	// silently rewind the lost documents to their initial topics.
	batches := rdd.MapPartitions(docs,
		func(ctx *executor.TaskContext, part int, in []*ml.Document) []*ldaBatch {
			return []*ldaBatch{{Docs: in}}
		})
	// A sweep's outcome is pure in (params, seed, parts, iteration, part),
	// so it is an "lda-sweep" page, sampled once per GenStore: for a run,
	// or for every cell of an evaluation batch that shares one. The task
	// charges from the page's counts on every ask.
	for it := 0; it < p.Iterations; it++ {
		st := state.Clone()
		bcast := rdd.NewBroadcast(app, st, st.ByteSize())
		sweep := ldaSweepDer.Bind(app, ldaSweepParams{p, it}, p.Docs, parts)
		batches = rdd.Cache(rdd.MapPartitions(batches,
			func(ctx *executor.TaskContext, part int, in []*ldaBatch) []*ldaBatch {
				st := bcast.Value(ctx) // global count tables
				s := sweep.Page(part, ldaSweepIn{in[0].Docs, st})
				ctx.CPU(float64(s.Flops) * ctx.Cost.FlopNS)
				// Count-table read-modify-writes: scattered 8-byte
				// updates (doc-topic + word-topic + totals).
				ctx.MemRand(memsim.Read, s.Tokens*p.Topics/4+1, int64(s.Tokens*p.Topics*2))
				ctx.MemRand(memsim.Write, s.Updates, int64(s.Updates*8))
				return []*ldaBatch{{Docs: s.Docs, Delta: s.Delta}}
			}))
		for _, b := range rdd.Collect(batches) {
			state.Apply(b.Delta)
		}
	}

	// Verification: mean dominant-topic share per document (random
	// assignments give ~1.2/topics; Gibbs drives it toward the generator's
	// 0.6 mixture weight as sweeps accumulate).
	share := 0.0
	for _, b := range rdd.Collect(batches) {
		finalShare(&share, b.Docs)
	}
	return Summary{
		Records: p.Docs,
		Metric:  share / float64(p.Docs),
		Note:    "dominant_topic_share",
	}
}

// genLDADocs fills records [lo, lo+len(out)) of the lda-docs source. Each
// document's words come from the partition's stream r, and its initial
// topics from a stream seeded seed+i. One *rand.Rand is reseeded per
// document instead of built afresh: Rand.Seed resets the source and the
// read position, so the draws equal a fresh rand.NewSource(seed+i)'s, and
// an rng.Source's Seed computes nothing, so a document pays only for the
// words its ~50 draws read.
func genLDADocs(r *rand.Rand, seed int64, lo int, p ldaParams, out []*ml.Document) {
	init := rng.New(seed + int64(lo))
	for j := range out {
		raw := genLDADoc(r, p.Vocab, p.Topics, p.DocLen)
		init.Seed(seed + int64(lo+j))
		out[j] = ml.InitDocument(raw.Words, p.Topics, init)
	}
}

// ldaSweepParams is everything a sweep's fill reads besides the seed, the
// partition and its inputs: the size's params and the iteration.
type ldaSweepParams struct {
	ldaParams
	Iteration int
}

// ldaSweepIn is a sweep task's input: the partition's documents from the
// previous generation and the broadcast count tables, both pure in the
// sweep's key.
type ldaSweepIn struct {
	docs  []*ml.Document
	state *ml.LDAState
}

// ldaSweep is one partition's Gibbs sweep in one iteration: the resampled
// documents, their count-table delta, and the counts the task charges
// from. Read-only once filled.
type ldaSweep struct {
	Docs                   []*ml.Document
	Delta                  *ml.LDADelta
	Flops, Updates, Tokens int
}

// ByteSize implements rdd.Sized: the generation the sweep produced.
func (s ldaSweep) ByteSize() int64 {
	return (&ldaBatch{Docs: s.Docs, Delta: s.Delta}).ByteSize()
}

// ldaSweepDer is lda's derived page: one partition's sweep.
var ldaSweepDer = rdd.Derivation[ldaSweep, ldaSweepIn, ldaSweepParams]{ID: "lda-sweep", Fill: sweepLDA}

// sweepLDA resamples clones of the input documents against the broadcast
// state, one collapsed-Gibbs sweep each, on the partition's stream.
func sweepLDA(p ldaSweepParams, seed int64, part int, in ldaSweepIn) ldaSweep {
	delta := in.state.NewLDADelta()
	sampler := ml.NewGibbsSampler(in.state, delta)
	r := rng.New(seed*7919 + int64(part) + int64(p.Iteration)*13)
	s := ldaSweep{Docs: ml.CloneDocuments(in.docs), Delta: delta}
	for _, d := range s.Docs {
		f, u := sampler.Resample(d, r)
		s.Flops += f
		s.Updates += u
		s.Tokens += len(d.Words)
	}
	return s
}

// ldaBatch is one partition's generation: the resampled documents and the
// count-table delta their sweep produced.
type ldaBatch struct {
	Docs  []*ml.Document
	Delta *ml.LDADelta
}

// ByteSize implements the engine's Sized interface.
func (b *ldaBatch) ByteSize() int64 {
	total := int64(24) + b.Delta.ByteSize()
	for _, d := range b.Docs {
		total += d.ByteSize()
	}
	return total
}

// finalShare accumulates each document's dominant-topic share.
func finalShare(share *float64, docs []*ml.Document) {
	for _, d := range docs {
		max := 0
		for _, c := range d.TopicCounts {
			if c > max {
				max = c
			}
		}
		*share += float64(max) / float64(len(d.Words))
	}
}
