package heat

import (
	"testing"
)

func samples(heats ...float64) []Sample {
	out := make([]Sample, len(heats))
	for i, h := range heats {
		out[i] = Sample{ID: bid(i), Heat: h}
	}
	return out
}

// forecast is f's prediction in a fresh slice, or cur itself.
func forecast(f Forecaster, h *History, cur []Sample) []Sample {
	out, _ := f.ForecastInto(nil, h, cur)
	return out
}

func TestHistoryRing(t *testing.T) {
	h := NewHistory(3)
	if h.limit != 3 || h.Epochs() != 0 {
		t.Fatalf("fresh history: limit=%d epochs=%d", h.limit, h.Epochs())
	}
	for i := 1; i <= 5; i++ {
		h.Push(samples(float64(i)))
	}
	if h.Epochs() != 3 {
		t.Fatalf("ring kept %d epochs, want 3", h.Epochs())
	}
	// Newest last: At(0)=epoch 5, At(2)=epoch 3, At(3)=nil.
	if got := h.At(0)[0].Heat; got != 5 {
		t.Fatalf("At(0) heat = %v, want 5", got)
	}
	if got := h.At(2)[0].Heat; got != 3 {
		t.Fatalf("At(2) heat = %v, want 3", got)
	}
	if h.At(3) != nil || h.At(-1) != nil {
		t.Fatal("out-of-range At not nil")
	}
	if got := h.Total(1); got != 4 {
		t.Fatalf("Total(1) = %v, want 4", got)
	}
	if NewHistory(0).limit != 2 {
		t.Fatal("limit floor not applied")
	}
}

func TestHistoryTotals(t *testing.T) {
	h := NewHistory(4)
	h.Push([]Sample{{ID: bid(0), Heat: 1, Write: 0.5}, {ID: bid(1), Heat: 2, Write: 0.25}})
	if got := h.Total(0); got != 3 {
		t.Fatalf("Total = %v, want 3", got)
	}
}

func TestSeek(t *testing.T) {
	s := []Sample{{ID: bid(1)}, {ID: bid(3)}, {ID: bid(4)}}
	// Increasing ids walk the cursor forward once: hits land on the
	// sample, misses on the first sample after the id.
	steps := []struct {
		id     int
		cursor int
		hit    bool
	}{{0, 0, false}, {1, 0, true}, {2, 1, false}, {3, 1, true}, {4, 2, true}, {9, 3, false}, {10, 3, false}}
	j := 0
	for _, st := range steps {
		var ok bool
		if j, ok = Seek(s, j, bid(st.id)); j != st.cursor || ok != st.hit {
			t.Fatalf("Seek(%d) = %d/%v, want %d/%v", st.id, j, ok, st.cursor, st.hit)
		}
	}
	if j, ok := Seek(nil, 0, bid(0)); j != 0 || ok {
		t.Fatalf("Seek in empty snapshot = %d/%v", j, ok)
	}
}

func TestTrendForecaster(t *testing.T) {
	h := NewHistory(4)
	var f TrendForecaster

	// No previous epoch: identity.
	cur := samples(2)
	h.Push(cur)
	if got := forecast(f, h, cur); got[0].Heat != 2 {
		t.Fatalf("one-epoch forecast = %v, want identity", got[0].Heat)
	}

	// Heating block extrapolates up, cooling block clamps at zero, new
	// block keeps its current heat.
	h.Push(samples(2, 4))                                    // prev: block0=2, block1=4
	cur = append(samples(3, 1), Sample{ID: bid(2), Heat: 5}) // cur adds block2
	h.Push(cur)
	out := forecast(f, h, cur)
	if out[0].Heat != 4 { // 2*3-2
		t.Fatalf("heating block forecast = %v, want 4", out[0].Heat)
	}
	if out[1].Heat != 0 { // 2*1-4 clamped
		t.Fatalf("cooling block forecast = %v, want 0", out[1].Heat)
	}
	if out[2].Heat != 5 { // unseen last epoch
		t.Fatalf("new block forecast = %v, want 5", out[2].Heat)
	}
	// Inputs untouched.
	if cur[1].Heat != 1 {
		t.Fatal("forecast mutated its input")
	}
}

func TestPhaseForecasterDetectsPeriod(t *testing.T) {
	h := NewHistory(12)
	// A clean period-3 pattern over two blocks, three full cycles.
	cycle := [][]float64{{8, 1}, {1, 8}, {4, 4}}
	var cur []Sample
	for i := 0; i < 9; i++ {
		cur = samples(cycle[i%3]...)
		h.Push(cur)
	}
	if p := detectPeriod(h); p != 3 {
		t.Fatalf("detected period %d, want 3", p)
	}
	// Last pushed epoch is phase 2 of the cycle; the next epoch is phase
	// 0, whose previous occurrence is At(p-1)=At(2), i.e. heats {8,1}.
	var f PhaseForecaster
	out := forecast(f, h, cur)
	if out[0].Heat != 8 || out[1].Heat != 1 {
		t.Fatalf("phase forecast = %v/%v, want 8/1", out[0].Heat, out[1].Heat)
	}
}

func TestPhaseForecasterQuietOnAperiodic(t *testing.T) {
	h := NewHistory(12)
	heats := []float64{1, 7, 2, 11, 3, 5, 17, 4, 9, 13}
	var cur []Sample
	for _, v := range heats {
		cur = samples(v)
		h.Push(cur)
	}
	if p := detectPeriod(h); p != 0 {
		t.Fatalf("aperiodic series detected period %d", p)
	}
	out := forecast(PhaseForecaster{}, h, cur)
	if out[0].Heat != cur[0].Heat {
		t.Fatal("aperiodic forecast not identity")
	}
}

func TestChainComposes(t *testing.T) {
	c, err := NewChain([]ForecasterKind{Trend, Phase})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.stages) != 2 || c.stages[0] != (TrendForecaster{}) || c.stages[1] != (PhaseForecaster{}) {
		t.Fatalf("chain stages = %v", c.stages)
	}

	// With no detectable period the phase stage is the identity, so the
	// chain output equals the trend output.
	h := NewHistory(4)
	h.Push(samples(2))
	cur := samples(3)
	h.Push(cur)
	out := c.Forecast(h, cur)
	want := forecast(TrendForecaster{}, h, cur)
	if out[0].Heat != want[0].Heat {
		t.Fatalf("chain = %v, trend alone = %v", out[0].Heat, want[0].Heat)
	}

	// Empty chain is the identity.
	empty, err := NewChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Forecast(h, cur); got[0] != cur[0] {
		t.Fatal("empty chain not identity")
	}
	if got := empty.ForecastBuffered(h, cur); &got[0] != &cur[0] {
		t.Fatal("empty buffered chain did not hand back cur")
	}

	if _, err := NewChain([]ForecasterKind{"oracle"}); err == nil {
		t.Fatal("unknown forecaster accepted")
	}
}
