package ml

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestDotAxPy(t *testing.T) {
	d, f := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if d != 32 || f != 6 {
		t.Fatalf("dot = %v (%d flops), want 32 (6)", d, f)
	}
	y := []float64{1, 1}
	f = AxPy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 || f != 4 {
		t.Fatalf("axpy = %v (%d flops)", y, f)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestCholeskySolveIdentity(t *testing.T) {
	a := []float64{1, 0, 0, 1}
	x, _ := CholeskySolve(a, []float64{3, -2})
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]+2) > 1e-12 {
		t.Fatalf("identity solve = %v", x)
	}
}

func TestCholeskySolveKnownSystem(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 8] -> x = [7/4, 3/2].
	a := []float64{4, 2, 2, 3}
	x, flops := CholeskySolve(a, []float64{10, 8})
	if math.Abs(x[0]-1.75) > 1e-12 || math.Abs(x[1]-1.5) > 1e-12 {
		t.Fatalf("solve = %v, want [1.75 1.5]", x)
	}
	if flops <= 0 {
		t.Error("flop count missing")
	}
}

func TestCholeskyNonPDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-PD matrix did not panic")
		}
	}()
	CholeskySolve([]float64{-1, 0, 0, -1}, []float64{1, 1})
}

// Property: for random SPD systems A = MᵀM + I, CholeskySolve returns x
// with small residual ||Ax - b||.
func TestCholeskySolveResidualProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		m := make([]float64, n*n)
		for i := range m {
			m[i] = r.NormFloat64()
		}
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += m[k*n+i] * m[k*n+j]
				}
				a[i*n+j] = s
			}
			a[i*n+i] += 1
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, _ := CholeskySolve(a, b)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a[i*n+j] * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNormalEquationsRecoversFactors(t *testing.T) {
	// With enough noise-free ratings r = q·x, solving recovers x.
	r := rand.New(rand.NewSource(7))
	rank := 4
	truth := []float64{0.5, -1, 2, 0.25}
	var factors [][]float64
	var ratings []float64
	for i := 0; i < 50; i++ {
		q := make([]float64, rank)
		for j := range q {
			q[j] = r.NormFloat64()
		}
		d, _ := Dot(q, truth)
		factors = append(factors, q)
		ratings = append(ratings, d)
	}
	x, _ := NormalEquations(factors, ratings, 1e-9)
	for j := range truth {
		if math.Abs(x[j]-truth[j]) > 1e-6 {
			t.Fatalf("recovered %v, want %v", x, truth)
		}
	}
}

func TestNormalEquationsEmpty(t *testing.T) {
	x, f := NormalEquations(nil, nil, 0.1)
	if x != nil || f != 0 {
		t.Fatal("empty normal equations should be nil")
	}
}

func TestRMSE(t *testing.T) {
	u := [][]float64{{1, 0}, {0, 1}}
	p := [][]float64{{2, 0}, {0, 3}}
	got, _ := RMSE(u, p, []float64{2, 3})
	if got > 1e-12 {
		t.Fatalf("perfect predictions rmse = %v", got)
	}
	got, _ = RMSE(u, p, []float64{2, 4})
	if math.Abs(got-math.Sqrt(0.5)) > 1e-12 {
		t.Fatalf("rmse = %v, want sqrt(0.5)", got)
	}
}

func TestNaiveBayesLearnsSeparableClasses(t *testing.T) {
	// Class 0 emits tokens 0-4, class 1 emits 5-9.
	counts := map[[2]int]int64{}
	for tok := 0; tok < 5; tok++ {
		counts[[2]int{0, tok}] = 100
		counts[[2]int{1, tok + 5}] = 100
	}
	m, flops := TrainNaiveBayes(2, 10, []int64{50, 50}, counts)
	if flops <= 0 {
		t.Error("flop count missing")
	}
	if c, _ := m.Predict([]int{0, 1, 2}); c != 0 {
		t.Errorf("predicted %d for class-0 tokens", c)
	}
	if c, _ := m.Predict([]int{7, 8, 9}); c != 1 {
		t.Errorf("predicted %d for class-1 tokens", c)
	}
}

func TestNaiveBayesValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("class count mismatch", func() { TrainNaiveBayes(2, 4, []int64{1}, nil) })
	mustPanic("no docs", func() { TrainNaiveBayes(1, 4, []int64{0}, nil) })
	mustPanic("bad key", func() {
		TrainNaiveBayes(1, 2, []int64{1}, map[[2]int]int64{{0, 9}: 1})
	})
	m, _ := TrainNaiveBayes(1, 2, []int64{1}, nil)
	mustPanic("bad token", func() { m.Predict([]int{5}) })
}

func TestBinStatsAndGini(t *testing.T) {
	s := NewBinStats(2)
	s.Counts[0] = 10
	if g := s.Gini(); g != 0 {
		t.Fatalf("pure node gini = %v", g)
	}
	s.Counts[1] = 10
	if g := s.Gini(); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("50/50 gini = %v, want 0.5", g)
	}
	sum := NewBinStats(2)
	sum.accumulate(s)
	sum.accumulate(s)
	if sum.Total() != 40 {
		t.Fatalf("merged total = %d", sum.Total())
	}
	if s.ByteSize() <= 0 {
		t.Error("ByteSize missing")
	}
}

func TestBestSplitFindsSeparatingFeature(t *testing.T) {
	// Feature 1 separates classes perfectly at bin 0; feature 0 is noise.
	numClasses := 2
	mkBins := func(counts [][2]int64) []BinStats {
		out := make([]BinStats, len(counts))
		for i, c := range counts {
			out[i] = NewBinStats(numClasses)
			out[i].Counts[0], out[i].Counts[1] = c[0], c[1]
		}
		return out
	}
	bins := [][]BinStats{
		mkBins([][2]int64{{5, 5}, {5, 5}}),   // feature 0: uninformative
		mkBins([][2]int64{{10, 0}, {0, 10}}), // feature 1: perfect at cut 0
	}
	split, _ := BestSplit(bins, numClasses, 1e-9)
	if split.Leaf {
		t.Fatal("separable node declared a leaf")
	}
	if split.Feature != 1 || split.Bin != 0 {
		t.Fatalf("split = %+v, want feature 1 bin 0", split)
	}
	if split.Gain < 0.49 {
		t.Fatalf("gain = %v, want ~0.5", split.Gain)
	}
}

func TestBestSplitPureNodeIsLeaf(t *testing.T) {
	bins := [][]BinStats{{
		func() BinStats { s := NewBinStats(2); s.Counts[1] = 20; return s }(),
		NewBinStats(2),
	}}
	split, _ := BestSplit(bins, 2, 1e-9)
	if !split.Leaf || split.Pred != 1 {
		t.Fatalf("pure node split = %+v, want leaf predicting 1", split)
	}
}

func TestTreeRouting(t *testing.T) {
	tr := NewTree(2)
	tr.Nodes[0].Split = Split{Feature: 0, Bin: 1}
	tr.Nodes[1].Split = Split{Leaf: true, Pred: 7}
	tr.Nodes[2].Split = Split{Leaf: true, Pred: 9}
	if got := tr.Predict([]int{0}); got != 7 {
		t.Fatalf("left route predicted %d", got)
	}
	if got := tr.Predict([]int{3}); got != 9 {
		t.Fatalf("right route predicted %d", got)
	}
	if n := tr.NodeOf([]int{0}, 1); n != 1 {
		t.Fatalf("NodeOf level 1 = %d, want 1", n)
	}
	if n := tr.NodeOf([]int{0}, 2); n != 1 {
		t.Fatalf("NodeOf at leaf should stick, got %d", n)
	}
}

func TestLDAGibbsConservesCounts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	state := NewLDAState(4, 20, 0.1, 0.01)
	var docs []*Document
	for d := 0; d < 10; d++ {
		words := make([]int, 30)
		for i := range words {
			words[i] = r.Intn(20)
		}
		doc := InitDocument(words, 4, r)
		docs = append(docs, doc)
		for i, w := range doc.Words {
			state.WordTopic[w*4+doc.Topics[i]]++
			state.TopicTotal[doc.Topics[i]]++
		}
	}
	totalTokens := int64(10 * 30)
	for iter := 0; iter < 3; iter++ {
		delta := state.NewLDADelta()
		g := NewGibbsSampler(state, delta)
		for _, doc := range docs {
			flops, updates := g.Resample(doc, r)
			if flops <= 0 || updates <= 0 {
				t.Fatal("resample cost accounting missing")
			}
		}
		state.Apply(delta)
		var sum int64
		for _, n := range state.TopicTotal {
			if n < 0 {
				t.Fatal("negative topic total")
			}
			sum += n
		}
		if sum != totalTokens {
			t.Fatalf("token count not conserved: %d != %d", sum, totalTokens)
		}
		for _, doc := range docs {
			dSum := 0
			for _, c := range doc.TopicCounts {
				if c < 0 {
					t.Fatal("negative doc-topic count")
				}
				dSum += c
			}
			if dSum != len(doc.Words) {
				t.Fatal("doc topic counts not conserved")
			}
		}
	}
}

func TestLDAConcentratesTopics(t *testing.T) {
	// Two disjoint vocabularies; after Gibbs sweeps, each document's
	// dominant topic should explain most of its tokens.
	r := rand.New(rand.NewSource(11))
	vocab, topics := 20, 2
	state := NewLDAState(topics, vocab, 0.05, 0.01)
	var docs []*Document
	for d := 0; d < 20; d++ {
		base := (d % 2) * 10
		words := make([]int, 40)
		for i := range words {
			words[i] = base + r.Intn(10)
		}
		doc := InitDocument(words, topics, r)
		docs = append(docs, doc)
		for i, w := range doc.Words {
			state.WordTopic[w*topics+doc.Topics[i]]++
			state.TopicTotal[doc.Topics[i]]++
		}
	}
	for iter := 0; iter < 30; iter++ {
		delta := state.NewLDADelta()
		g := NewGibbsSampler(state, delta)
		for _, doc := range docs {
			g.Resample(doc, r)
		}
		state.Apply(delta)
	}
	sharp := 0
	for _, doc := range docs {
		max := 0
		for _, c := range doc.TopicCounts {
			if c > max {
				max = c
			}
		}
		if float64(max) > 0.8*float64(len(doc.Words)) {
			sharp++
		}
	}
	if sharp < 15 {
		t.Fatalf("only %d/20 documents concentrated on one topic", sharp)
	}
}

// refClamps counts the conditionals refResampleDocument clamped to zero,
// so the property below can show its inputs reach the clamp.
var refClamps int

// refResampleDocument is the sweep as it was before GibbsSampler: every
// p_k evaluated from the integer tables, probs allocated per document.
// GibbsSampler.Resample must reproduce it bit for bit.
func refResampleDocument(doc *Document, state *LDAState, delta *LDADelta, r *rand.Rand) (flops, updates int) {
	K := state.Topics
	probs := make([]float64, K)
	vBeta := float64(state.Vocab) * state.Beta
	for i, w := range doc.Words {
		old := doc.Topics[i]
		// Remove the token from its current topic.
		doc.TopicCounts[old]--
		delta.WordTopic[w*K+old]--
		delta.TopicTotal[old]--
		updates += 3

		// Sample a new topic from the collapsed conditional.
		sum := 0.0
		for k := 0; k < K; k++ {
			wt := float64(state.WordTopic[w*K+k] + delta.WordTopic[w*K+k])
			tt := float64(state.TopicTotal[k] + delta.TopicTotal[k])
			dt := float64(doc.TopicCounts[k])
			p := (dt + state.Alpha) * (wt + state.Beta) / (tt + vBeta)
			if p < 0 {
				p = 0
				refClamps++
			}
			sum += p
			probs[k] = sum
		}
		flops += 6 * K
		u := r.Float64() * sum
		next := K - 1
		for k := 0; k < K; k++ {
			if u <= probs[k] {
				next = k
				break
			}
		}
		doc.Topics[i] = next
		doc.TopicCounts[next]++
		delta.WordTopic[w*K+next]++
		delta.TopicTotal[next]++
		updates += 3
	}
	return flops, updates
}

// refClone is the per-document deep copy CloneDocuments replaced.
func refClone(d *Document) *Document {
	return &Document{
		Words:       d.Words,
		Topics:      append([]int(nil), d.Topics...),
		TopicCounts: append([]int(nil), d.TopicCounts...),
	}
}

// Property: over random shapes, hyperparameters, counts and documents —
// including deltas and document counts driven negative, so conditionals
// clamp to zero — one GibbsSampler resampling a task's documents leaves
// exactly the assignments, document counts, delta tables, cost counts and
// PRNG position of refResampleDocument.
func TestGibbsSamplerMatchesReference(t *testing.T) {
	refClamps = 0
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		K, V := 1+r.Intn(40), 1+r.Intn(400)
		alpha := []float64{0.01, 0.5, 50.0 / float64(K), r.Float64() * 3}[r.Intn(4)]
		beta := []float64{0.01, 0.5, 1, r.Float64()}[r.Intn(4)]
		state := NewLDAState(K, V, alpha, beta)
		for i := range state.WordTopic {
			state.WordTopic[i] = int64(r.Intn(6))
		}
		for k := range state.TopicTotal {
			state.TopicTotal[k] = int64(r.Intn(3 * V))
		}
		delta := state.NewLDADelta()
		for i := range delta.WordTopic {
			delta.WordTopic[i] = int64(r.Intn(7) - 5)
		}
		for k := range delta.TopicTotal {
			delta.TopicTotal[k] = int64(r.Intn(6*V+2) - 6*V)
		}
		docs := make([]*Document, 1+r.Intn(6))
		for j := range docs {
			words := make([]int, r.Intn(80))
			for i := range words {
				words[i] = r.Intn(V)
			}
			docs[j] = InitDocument(words, K, r)
			if r.Intn(3) == 0 {
				for k := range docs[j].TopicCounts {
					docs[j].TopicCounts[k] -= r.Intn(3)
				}
			}
		}

		wantDocs := make([]*Document, len(docs))
		for j, d := range docs {
			wantDocs[j] = refClone(d)
		}
		wantDelta := &LDADelta{
			WordTopic:  append([]int64(nil), delta.WordTopic...),
			TopicTotal: append([]int64(nil), delta.TopicTotal...),
		}
		sampleSeed := r.Int63()
		rRef, rGot := rand.New(rand.NewSource(sampleSeed)), rand.New(rand.NewSource(sampleSeed))
		g := NewGibbsSampler(state, delta)
		for j, d := range docs {
			wf, wu := refResampleDocument(wantDocs[j], state, wantDelta, rRef)
			gf, gu := g.Resample(d, rGot)
			if wf != gf || wu != gu {
				t.Logf("seed %d doc %d: cost %d/%d, reference %d/%d", seed, j, gf, gu, wf, wu)
				return false
			}
			if !slices.Equal(d.Topics, wantDocs[j].Topics) || !slices.Equal(d.TopicCounts, wantDocs[j].TopicCounts) {
				t.Logf("seed %d (K=%d V=%d) doc %d: assignments differ from the reference's", seed, K, V, j)
				return false
			}
		}
		if !slices.Equal(delta.WordTopic, wantDelta.WordTopic) || !slices.Equal(delta.TopicTotal, wantDelta.TopicTotal) {
			t.Logf("seed %d (K=%d V=%d): delta differs from the reference's", seed, K, V)
			return false
		}
		return rRef.Int63() == rGot.Int63()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if refClamps == 0 {
		t.Fatal("no conditional was clamped: the inputs never reach p < 0")
	}
}

func TestCloneDocumentsIsolatesClones(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var src []*Document
	for j := 0; j < 4; j++ {
		words := make([]int, 3+j)
		for i := range words {
			words[i] = r.Intn(9)
		}
		src = append(src, InitDocument(words, 3, r))
	}
	want := make([]*Document, len(src))
	for j, d := range src {
		want[j] = refClone(d)
	}
	clones := CloneDocuments(src)
	if !reflect.DeepEqual(clones, want) {
		t.Fatal("clones differ from per-document copies")
	}
	for j, c := range clones {
		if &c.Words[0] != &src[j].Words[0] {
			t.Fatalf("clone %d copied Words instead of sharing them", j)
		}
	}

	c := clones[1]
	c.Topics[0] = 99
	c.TopicCounts[2] = -7
	c.Topics = append(c.Topics, 42)
	c.TopicCounts = append(c.TopicCounts, 42)
	for j, d := range src {
		if !reflect.DeepEqual(d, want[j]) {
			t.Fatalf("mutating clone 1 changed source %d", j)
		}
	}
	for _, j := range []int{0, 2, 3} {
		if !reflect.DeepEqual(clones[j], want[j]) {
			t.Fatalf("mutating clone 1 changed sibling %d", j)
		}
	}
}

func TestPageRankReferenceUniformOnRing(t *testing.T) {
	// A symmetric ring must converge to uniform rank 1.
	links := map[int][]int{}
	n := 10
	for i := 0; i < n; i++ {
		links[i] = []int{(i + 1) % n}
	}
	ranks := PageRankReference(links, 30)
	for p, r := range ranks {
		if math.Abs(r-1.0) > 1e-6 {
			t.Fatalf("ring rank[%d] = %v, want 1.0", p, r)
		}
	}
}

func TestPageRankReferenceHubGetsMore(t *testing.T) {
	// Everyone links to page 0; page 0 links back to 1.
	links := map[int][]int{0: {1}}
	for i := 1; i < 6; i++ {
		links[i] = []int{0}
	}
	ranks := PageRankReference(links, 25)
	for i := 2; i < 6; i++ {
		if ranks[0] <= ranks[i] {
			t.Fatalf("hub rank %v not above leaf rank %v", ranks[0], ranks[i])
		}
	}
}
