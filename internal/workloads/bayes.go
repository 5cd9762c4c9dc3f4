package workloads

import (
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/ml"
	"repro/internal/rdd"
)

// bayesParams scales Table II's page counts down 100x; classes follow the
// paper (10/100/100) capped by what the scaled vocabulary supports.
type bayesParams struct {
	Pages, Classes, Vocab, TokensPerPage int
}

var bayesSizes = [NumSizes]bayesParams{
	Tiny:  {Pages: 250, Classes: 10, Vocab: 1000, TokensPerPage: 80},
	Small: {Pages: 300, Classes: 100, Vocab: 1000, TokensPerPage: 80},
	Large: {Pages: 1000, Classes: 100, Vocab: 1000, TokensPerPage: 80},
}

// ClassTok keys the (class, token) shuffle of Naive Bayes training.
type ClassTok struct {
	C, T int
}

// Hash64 implements rdd.Hashable.
func (k ClassTok) Hash64() uint64 {
	return rdd.HashInt64(int64(k.C)<<32 | int64(k.T))
}

// Bayes is HiBench's Naive Bayes classification: count (class, token)
// pairs across the corpus with a shuffle, train a multinomial model on the
// driver and score the corpus against the broadcast model.
type Bayes struct{}

// NewBayes returns the workload.
func NewBayes() *Bayes { return &Bayes{} }

// Name implements Workload.
func (b *Bayes) Name() string { return "bayes" }

// Category implements Workload.
func (b *Bayes) Category() Category { return MachineLearning }

// Describe implements Workload.
func (b *Bayes) Describe(size Size) string {
	p := bayesSizes[size]
	return fmtParams("pages", p.Pages, "classes", p.Classes, "vocab", p.Vocab, "tokens/page", p.TokensPerPage)
}

// Run implements Workload.
func (b *Bayes) Run(app *cluster.App, size Size) Summary {
	p := bayesSizes[size]
	pages := rdd.Cache(bayesCorpusGen.Source(app, "bayes-corpus", p, p.Pages, 0))

	// Token frequency per (class, token): the shuffle-heavy phase.
	tokenPairs := rdd.FlatMap(pages, func(dst []rdd.Pair[ClassTok, int64], pg Page) []rdd.Pair[ClassTok, int64] {
		for _, t := range pg.Tokens {
			dst = append(dst, rdd.KV(ClassTok{pg.Class, t}, int64(1)))
		}
		return dst
	})
	tokenCounts := rdd.ReduceByKey(tokenPairs, func(a, b int64) int64 { return a + b }, 0)

	// Documents per class.
	classPairs := rdd.Map(pages, func(pg Page) rdd.Pair[int, int64] { return rdd.KV(pg.Class, int64(1)) })
	classCounts := rdd.ReduceByKey(classPairs, func(a, b int64) int64 { return a + b }, 0)

	counts := make(map[[2]int]int64)
	for _, pr := range rdd.Collect(tokenCounts) {
		counts[[2]int{pr.Key.C, pr.Key.T}] = pr.Val
	}
	classDocs := make([]int64, p.Classes)
	for _, pr := range rdd.Collect(classCounts) {
		classDocs[pr.Key] = pr.Val
	}

	model, flops := ml.TrainNaiveBayes(p.Classes, p.Vocab, classDocs, counts)
	_ = flops // driver-side work; executor time is what the paper measures

	// Scoring phase: broadcast the model, classify the corpus.
	modelBytes := int64(8 * (len(model.LogPrior) + len(model.LogLikelihood)))
	bcast := rdd.NewBroadcast(app, model, modelBytes)
	correctByPart := rdd.Collect(rdd.MapPartitions(pages,
		func(ctx *executor.TaskContext, part int, in []Page) []int {
			m := bcast.Value(ctx)
			correct := 0
			for _, pg := range in {
				pred, f := m.Predict(pg.Tokens)
				ctx.CPU(float64(f) * ctx.Cost.FlopNS)
				// Likelihood table probes are scattered reads.
				ctx.MemRand(memsim.Read, len(pg.Tokens), int64(8*len(pg.Tokens)))
				if pred == pg.Class {
					correct++
				}
			}
			return []int{correct}
		}))
	correct := 0
	for _, c := range correctByPart {
		correct += c
	}
	return Summary{
		Records: p.Pages,
		Metric:  float64(correct) / float64(p.Pages),
		Note:    "accuracy",
	}
}
