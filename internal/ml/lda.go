package ml

import (
	"fmt"
	"math/rand"
)

// LDAState is the global collapsed-Gibbs state shared (broadcast) across
// partitions each iteration: topic-word and topic totals.
type LDAState struct {
	Topics int
	Vocab  int
	// WordTopic[w*Topics+k] counts word w assigned to topic k.
	WordTopic []int64
	// TopicTotal[k] counts all assignments to topic k.
	TopicTotal []int64
	// Alpha and Beta are the Dirichlet hyperparameters.
	Alpha, Beta float64
}

// NewLDAState allocates zeroed counts.
func NewLDAState(topics, vocab int, alpha, beta float64) *LDAState {
	if topics <= 0 || vocab <= 0 {
		panic(fmt.Sprintf("ml: LDA with %d topics, %d vocab", topics, vocab))
	}
	return &LDAState{
		Topics:     topics,
		Vocab:      vocab,
		WordTopic:  make([]int64, vocab*topics),
		TopicTotal: make([]int64, topics),
		Alpha:      alpha,
		Beta:       beta,
	}
}

// Clone deep-copies the count tables. Broadcasts must snapshot: real
// Spark serializes the value at broadcast time, so later driver-side
// Apply calls never leak into an earlier iteration's closure — which is
// exactly what lineage recomputation of an old generation relies on.
func (s *LDAState) Clone() *LDAState {
	return &LDAState{
		Topics:     s.Topics,
		Vocab:      s.Vocab,
		WordTopic:  append([]int64(nil), s.WordTopic...),
		TopicTotal: append([]int64(nil), s.TopicTotal...),
		Alpha:      s.Alpha,
		Beta:       s.Beta,
	}
}

// ByteSize reports the broadcast size of the state.
func (s *LDAState) ByteSize() int64 {
	return int64(8*len(s.WordTopic) + 8*len(s.TopicTotal) + 64)
}

// Apply merges a delta (from one partition's resampling pass) into the
// global state.
func (s *LDAState) Apply(delta *LDADelta) {
	if len(delta.WordTopic) != len(s.WordTopic) {
		panic("ml: LDA delta shape mismatch")
	}
	for i, d := range delta.WordTopic {
		s.WordTopic[i] += d
	}
	for k, d := range delta.TopicTotal {
		s.TopicTotal[k] += d
	}
}

// LDADelta carries count changes produced by resampling one partition.
type LDADelta struct {
	WordTopic  []int64
	TopicTotal []int64
}

// ByteSize implements the engine's Sized interface.
func (d *LDADelta) ByteSize() int64 {
	return int64(8*len(d.WordTopic) + 8*len(d.TopicTotal) + 48)
}

// NewLDADelta allocates a zero delta matching the state shape.
func (s *LDAState) NewLDADelta() *LDADelta {
	return &LDADelta{
		WordTopic:  make([]int64, len(s.WordTopic)),
		TopicTotal: make([]int64, len(s.TopicTotal)),
	}
}

// Document is one LDA document: token ids and their current topic
// assignments (same length).
type Document struct {
	Words  []int
	Topics []int
	// TopicCounts[k] caches the document's per-topic assignment counts.
	TopicCounts []int
}

// ByteSize implements the engine's Sized interface.
func (d *Document) ByteSize() int64 {
	return int64(24*3 + 8*len(d.Words) + 8*len(d.Topics) + 8*len(d.TopicCounts))
}

// CloneDocuments returns independent copies of the documents' mutable
// state, carved from one arena: one []Document and one []int holding every
// clone's Topics and TopicCounts, capped so no clone can append into a
// neighbour. Words is shared: token ids never change after generation.
// Gibbs resampling must operate on clones so that a cached predecessor
// iteration stays immutable and lineage recomputation remains exact.
func CloneDocuments(docs []*Document) []*Document {
	n := 0
	for _, d := range docs {
		n += len(d.Topics) + len(d.TopicCounts)
	}
	ints := make([]int, n)
	carve := func(src []int) []int {
		dst := ints[:len(src):len(src)]
		ints = ints[len(src):]
		copy(dst, src)
		return dst
	}
	clones := make([]Document, len(docs))
	out := make([]*Document, len(docs))
	for j, d := range docs {
		clones[j] = Document{Words: d.Words, Topics: carve(d.Topics), TopicCounts: carve(d.TopicCounts)}
		out[j] = &clones[j]
	}
	return out
}

// InitDocument assigns random topics to a token list.
func InitDocument(words []int, topics int, r *rand.Rand) *Document {
	d := &Document{
		Words:       words,
		Topics:      make([]int, len(words)),
		TopicCounts: make([]int, topics),
	}
	for i := range words {
		k := r.Intn(topics)
		d.Topics[i] = k
		d.TopicCounts[k]++
	}
	return d
}

// GibbsSampler runs collapsed-Gibbs sweeps for one task: every document it
// resamples is drawn against the same global state and accumulates its
// count changes into the same delta. The conditional of topic k is
//
//	p_k = (docCount_k + α) · (wordTopic_k + β) / (topicTotal_k + V·β)
//
// and a token moves only two topics' counts, so the sampler keeps both
// outer factors as floats (den per task, docw per document) and recomputes
// them at the token's old and new topic only — with the same expression
// over the same integers, so every p_k and prefix sum is bit-for-bit what
// evaluating the whole formula would give. The delta's TopicTotal is the
// sampler's while it lives: den caches it.
type GibbsSampler struct {
	state *LDAState
	delta *LDADelta
	vBeta float64
	// den[k] = float64(state.TopicTotal[k]+delta.TopicTotal[k]) + V·β.
	den []float64
	// docw[k] = float64(doc.TopicCounts[k]) + α for the document in hand.
	docw []float64
	// probs[k] is the running prefix sum of p_0..p_k for the token in hand.
	probs []float64
}

// NewGibbsSampler builds a task's sampler over the broadcast state and
// the task's delta.
func NewGibbsSampler(state *LDAState, delta *LDADelta) *GibbsSampler {
	K := state.Topics
	buf := make([]float64, 3*K)
	g := &GibbsSampler{
		state: state,
		delta: delta,
		vBeta: float64(state.Vocab) * state.Beta,
		den:   buf[:K:K],
		docw:  buf[K : 2*K : 2*K],
		probs: buf[2*K:],
	}
	for k := range g.den {
		g.den[k] = topicDen(state.TopicTotal, delta.TopicTotal, g.vBeta, k)
	}
	return g
}

// topicDen is den[k]'s one expression, shared by its fill and its updates.
func topicDen(stateTotal, deltaTotal []int64, vBeta float64, k int) float64 {
	return float64(stateTotal[k]+deltaTotal[k]) + vBeta
}

// Resample runs one collapsed-Gibbs sweep over the document, drawing one
// r.Float64 per token. It returns the number of flops and the number of
// count-table updates (each update is a read-modify-write on the
// doc-topic and word-topic tables — the write-heavy access pattern that
// makes LDA the most NVM-write-intensive benchmark in the paper).
func (g *GibbsSampler) Resample(doc *Document, r *rand.Rand) (flops, updates int) {
	den := g.den
	K := len(den)
	alpha, beta, vBeta := g.state.Alpha, g.state.Beta, g.vBeta
	stateTotal, deltaTotal := g.state.TopicTotal[:K], g.delta.TopicTotal[:K]
	docw, probs := g.docw[:K], g.probs[:K]
	counts := doc.TopicCounts[:K]
	topics := doc.Topics[:len(doc.Words)]
	for k, c := range counts {
		docw[k] = float64(c) + alpha
	}
	for i, w := range doc.Words {
		lo := w * K
		sw := g.state.WordTopic[lo:][:K:K]
		dw := g.delta.WordTopic[lo:][:K:K]

		// Remove the token from its current topic.
		old := topics[i]
		counts[old]--
		dw[old]--
		deltaTotal[old]--
		docw[old] = float64(counts[old]) + alpha
		den[old] = topicDen(stateTotal, deltaTotal, vBeta, old)
		updates += 3

		// Sample a new topic from the collapsed conditional.
		sum := 0.0
		for k, d := range den {
			p := docw[k] * (float64(sw[k]+dw[k]) + beta) / d
			if p < 0 {
				p = 0
			}
			sum += p
			probs[k] = sum
		}
		flops += 6 * K
		u := r.Float64() * sum
		next := K - 1
		for k, c := range probs {
			if u <= c {
				next = k
				break
			}
		}
		topics[i] = next
		counts[next]++
		dw[next]++
		deltaTotal[next]++
		docw[next] = float64(counts[next]) + alpha
		den[next] = topicDen(stateTotal, deltaTotal, vBeta, next)
		updates += 3
	}
	return flops, updates
}
