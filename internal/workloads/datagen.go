package workloads

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ml"
	"repro/internal/rdd"
)

// The registered generators: every generated input a workload reads. A
// generator's ID names its fill body and its params type is everything the
// body reads besides the seed, so two sources with equal (ID, params, seed,
// n, parts) hold the same records partition for partition. A GenStore
// generates each such partition once and hands the page to every read
// (rdd.Generator.Source): a run's own store to both of a sort's jobs, the
// store an evaluation batch shares to every cell that asks, so the
// figures' many tiers and layouts of a cell read one copy of its input,
// and hibench.Run's slot to back-to-back runs of one input. A fill
// reads nothing else — no captured variable, no package state — and no
// consumer writes the records it reads.
var (
	textRecordsGen = rdd.Generator[TextRecord, struct{}]{ID: "text-records",
		Fill: func(_ struct{}, _ int64, r *rand.Rand, _, _ int, out []TextRecord) { genTextRecords(r, out) }}
	webGraphGen = rdd.Generator[WebPage, pagerankParams]{ID: "web-graph",
		Fill: func(p pagerankParams, _ int64, r *rand.Rand, lo, _ int, out []WebPage) {
			for j := range out {
				out[j] = genWebPage(r, lo+j, p.Pages, p.MaxDegree)
			}
		}}
	bayesCorpusGen = rdd.Generator[Page, bayesParams]{ID: "bayes-corpus",
		Fill: func(p bayesParams, _ int64, r *rand.Rand, _, _ int, out []Page) {
			for j := range out {
				out[j] = genPage(r, p.Classes, p.Vocab, p.TokensPerPage)
			}
		}}
	rfExamplesGen = rdd.Generator[Example, rfParams]{ID: "rf-examples",
		Fill: func(p rfParams, _ int64, r *rand.Rand, lo, _ int, out []Example) {
			for j := range out {
				out[j] = genExample(r, lo+j, p.Features, p.Bins)
			}
		}}
	ldaDocsGen = rdd.Generator[*ml.Document, ldaParams]{ID: "lda-docs",
		Fill: func(p ldaParams, seed int64, r *rand.Rand, lo, _ int, out []*ml.Document) {
			genLDADocs(r, seed, lo, p, out)
		}}
)

// TextRecord is a HiBench-style text line: a short random key plus an
// opaque payload. ByteSize reports the nominal 100-byte line so byte-level
// traffic matches the catalog sizes regardless of Go's representation.
type TextRecord struct {
	Key     string
	Payload int64
}

// ByteSize implements rdd.Sized: a nominal 100-byte line.
func (t TextRecord) ByteSize() int64 { return 100 }

// Hash64 implements rdd.Hashable.
func (t TextRecord) Hash64() uint64 {
	return rdd.HashString(t.Key) ^ uint64(t.Payload)
}

// genTextRecords fills out with records of a 10-character key and a
// payload, drawn per record as 10 key bytes then the payload; every key
// is a substring of one shared arena built in a single strings.Builder,
// so a whole partition costs one key allocation instead of one per
// record. The text-heavy workloads (sort, repartition) generate 320k
// records per large cell, which made per-record keys the dominant host
// allocator on the bench wall-clock path. Each key
// byte is r.Intn(36) written out: Int31n's draw, its rejection bound and
// its modulus, with the constant divisor in place of three call levels.
func genTextRecords(r *rand.Rand, out []TextRecord) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	const keyLen = 10
	// maxDraw is Int31n(36)'s bound: larger draws are redrawn so that every
	// residue is equally likely.
	const maxDraw = int32((1<<31 - 1) - (1<<31)%len(alphabet))
	var sb strings.Builder
	sb.Grow(keyLen * len(out))
	var key [keyLen]byte
	for i := range out {
		for j := range key {
			v := int32(r.Int63() >> 32)
			for v > maxDraw {
				v = int32(r.Int63() >> 32)
			}
			key[j] = alphabet[v%int32(len(alphabet))]
		}
		sb.Write(key[:])
		out[i].Payload = r.Int63()
	}
	arena := sb.String()
	for i := range out {
		out[i].Key = arena[keyLen*i : keyLen*(i+1)]
	}
}

// Rating is one ALS observation.
type Rating struct {
	User, Product int
	Score         float64
}

// ByteSize implements rdd.Sized.
func (r Rating) ByteSize() int64 { return 24 }

// genRatings produces nRatings observations from hidden rank-`rank` user
// and product factors, so ALS has structure to recover.
func genRatings(r *rand.Rand, users, products, nRatings, rank int) []Rating {
	uf := make([][]float64, users)
	pf := make([][]float64, products)
	for i := range uf {
		uf[i] = randVec(r, rank)
	}
	for i := range pf {
		pf[i] = randVec(r, rank)
	}
	out := make([]Rating, nRatings)
	for i := range out {
		u := r.Intn(users)
		p := r.Intn(products)
		s := 0.0
		for k := 0; k < rank; k++ {
			s += uf[u][k] * pf[p][k]
		}
		out[i] = Rating{User: u, Product: p, Score: s + 0.05*r.NormFloat64()}
	}
	return out
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// Page is one Bayes training document: a class label and a bag of token
// ids drawn from a class-biased distribution.
type Page struct {
	Class  int
	Tokens []int
}

// ByteSize implements rdd.Sized.
func (p Page) ByteSize() int64 { return int64(16 + 8*len(p.Tokens)) }

// genPage draws a page whose tokens are biased toward a class-specific
// region of the vocabulary (so Naive Bayes is learnable) with a uniform
// background mix.
func genPage(r *rand.Rand, classes, vocab, tokensPerPage int) Page {
	c := r.Intn(classes)
	regionSize := vocab / classes
	if regionSize < 1 {
		regionSize = 1
	}
	base := (c * regionSize) % vocab
	toks := make([]int, tokensPerPage)
	for i := range toks {
		if r.Float64() < 0.7 {
			toks[i] = (base + r.Intn(regionSize)) % vocab
		} else {
			toks[i] = r.Intn(vocab)
		}
	}
	return Page{Class: c, Tokens: toks}
}

// Example is one random-forest training example with binned features.
type Example struct {
	ID    int
	Label int
	Bins  []int
}

// ByteSize implements rdd.Sized.
func (e Example) ByteSize() int64 { return int64(24 + 8*len(e.Bins)) }

// genExample draws features uniform in bins [0, nBins) and labels from a
// noisy rule on the first two features, learnable by shallow trees.
func genExample(r *rand.Rand, id, features, nBins int) Example {
	bins := make([]int, features)
	for i := range bins {
		bins[i] = r.Intn(nBins)
	}
	label := 0
	if bins[0] >= nBins/2 {
		label = 1
	}
	if features > 1 && bins[1] < nBins/4 {
		label = 1 - label
	}
	if r.Float64() < 0.05 { // label noise
		label = 1 - label
	}
	return Example{ID: id, Label: label, Bins: bins}
}

// WebPage is a pagerank vertex with its outgoing links.
type WebPage struct {
	ID    int
	Links []int
}

// ByteSize implements rdd.Sized.
func (w WebPage) ByteSize() int64 { return int64(16 + 8*len(w.Links)) }

// genWebPage draws a page with a skewed out-degree (1..maxDeg) whose link
// targets are biased toward low page ids, producing hub structure like web
// graphs.
func genWebPage(r *rand.Rand, id, pages, maxDeg int) WebPage {
	deg := 1 + r.Intn(maxDeg)
	links := make([]int, 0, deg)
	for i := 0; i < deg; i++ {
		// Quadratic bias toward low ids (preferential attachment-ish).
		t := int(float64(pages) * r.Float64() * r.Float64())
		if t >= pages {
			t = pages - 1
		}
		if t == id {
			t = (t + 1) % pages
		}
		links = append(links, t)
	}
	return WebPage{ID: id, Links: links}
}

// LDADoc is a raw LDA document before topic initialization.
type LDADoc struct {
	Words []int
}

// ByteSize implements rdd.Sized.
func (d LDADoc) ByteSize() int64 { return int64(24 + 8*len(d.Words)) }

// genLDADoc draws a document from a 2-topic-per-doc mixture over vocab.
func genLDADoc(r *rand.Rand, vocab, topics, docLen int) LDADoc {
	// Pick two "true" topics; each topic owns a vocabulary band.
	t1, t2 := r.Intn(topics), r.Intn(topics)
	band := vocab / topics
	if band < 1 {
		band = 1
	}
	words := make([]int, docLen)
	for i := range words {
		t := t1
		if r.Float64() < 0.4 {
			t = t2
		}
		words[i] = ((t*band)%vocab + r.Intn(band)) % vocab
	}
	return LDADoc{Words: words}
}

// fmtParams renders a parameter list like "pages=500 maxdeg=12".
func fmtParams(kv ...any) string {
	s := ""
	for i := 0; i+1 < len(kv); i += 2 {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%v=%v", kv[i], kv[i+1])
	}
	return s
}
