package workloads

import (
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/rdd"
)

// The registry publishes a specialized sizer/hasher per record type; each
// must agree EXACTLY with the boxing SizeOf/HashAny it replaces, for every
// value — charged bytes feed virtual time, and any disagreement would
// silently shift the frozen ledger. quick.Check hammers each registration
// with generated values.

func checkSizer[T any](t *testing.T, name string) {
	t.Helper()
	s := rdd.SizerFor[T]()
	if err := quick.Check(func(v T) bool {
		return s.Of(v) == rdd.SizeOf(any(v))
	}, nil); err != nil {
		t.Errorf("%s sizer disagrees with SizeOf: %v", name, err)
	}
}

func checkHasher[K interface{ comparable }](t *testing.T, name string) {
	t.Helper()
	h := rdd.HasherFor[K]()
	if err := quick.Check(func(k K) bool {
		return h(k) == rdd.HashAny(any(k))
	}, nil); err != nil {
		t.Errorf("%s hasher disagrees with HashAny: %v", name, err)
	}
}

func TestRegisteredSizersMatchSizeOf(t *testing.T) {
	checkSizer[TextRecord](t, "TextRecord")
	checkSizer[Rating](t, "Rating")
	checkSizer[Page](t, "Page")
	checkSizer[Example](t, "Example")
	checkSizer[WebPage](t, "WebPage")
	checkSizer[LDADoc](t, "LDADoc")
	checkSizer[ClassTok](t, "ClassTok")
	checkSizer[NodeFeatBin](t, "NodeFeatBin")
	checkSizer[[]Rating](t, "[]Rating")
	checkSizer[rdd.Two[[]int, float64]](t, "Two[[]int,float64]")
	checkSizer[ml.BinStats](t, "ml.BinStats")
}

func TestRegisteredPairSizersMatchSizeOf(t *testing.T) {
	checkSizer[rdd.Pair[string, TextRecord]](t, "Pair[string,TextRecord]")
	checkSizer[rdd.Pair[int, TextRecord]](t, "Pair[int,TextRecord]")
	checkSizer[rdd.Pair[string, int64]](t, "Pair[string,int64]")
	checkSizer[rdd.Pair[int, int64]](t, "Pair[int,int64]")
	checkSizer[rdd.Pair[ClassTok, int64]](t, "Pair[ClassTok,int64]")
	checkSizer[rdd.Pair[int, Rating]](t, "Pair[int,Rating]")
	checkSizer[rdd.Pair[int, []Rating]](t, "Pair[int,[]Rating]")
	checkSizer[rdd.Pair[int, []float64]](t, "Pair[int,[]float64]")
	checkSizer[rdd.Pair[int, float64]](t, "Pair[int,float64]")
	checkSizer[rdd.Pair[int, []int]](t, "Pair[int,[]int]")
	checkSizer[rdd.Pair[int, rdd.Two[[]int, float64]]](t, "Pair[int,Two]")
	checkSizer[rdd.Pair[NodeFeatBin, ml.BinStats]](t, "Pair[NodeFeatBin,BinStats]")
}

func TestRegisteredHashersMatchHashAny(t *testing.T) {
	checkHasher[ClassTok](t, "ClassTok")
	checkHasher[NodeFeatBin](t, "NodeFeatBin")
	checkHasher[TextRecord](t, "TextRecord")
}

// Pointer Sized types can't go through quick.Check's nil-happy pointer
// generation (ByteSize dereferences); hand-built samples cover them.
func TestPointerSizedSizersMatchSizeOf(t *testing.T) {
	st := ml.NewLDAState(3, 17, 0.1, 0.01)
	delta := st.NewLDADelta()
	doc := &ml.Document{Words: []int{1, 2, 3}, Topics: []int{0, 1, 2}, TopicCounts: []int{1, 1, 1}}
	batch := &ldaBatch{Docs: []*ml.Document{doc}, Delta: delta}

	if got, want := rdd.SizerFor[*ml.LDAState]().Of(st), rdd.SizeOf(any(st)); got != want {
		t.Errorf("*LDAState sizer = %d, want %d", got, want)
	}
	if got, want := rdd.SizerFor[*ml.LDADelta]().Of(delta), rdd.SizeOf(any(delta)); got != want {
		t.Errorf("*LDADelta sizer = %d, want %d", got, want)
	}
	if got, want := rdd.SizerFor[*ml.Document]().Of(doc), rdd.SizeOf(any(doc)); got != want {
		t.Errorf("*Document sizer = %d, want %d", got, want)
	}
	if got, want := rdd.SizerFor[*ldaBatch]().Of(batch), rdd.SizeOf(any(batch)); got != want {
		t.Errorf("*ldaBatch sizer = %d, want %d", got, want)
	}
}

// TestFixedSizersAreFixed pins the constant-fold property the slice walks
// rely on: these types' footprints never vary, so SizeSlice over them is
// O(1), and the fixed constants match SizeOf.
func TestFixedSizersAreFixed(t *testing.T) {
	cases := []struct {
		name string
		got  func() (int64, bool)
		want int64
	}{
		{"TextRecord", func() (int64, bool) { return rdd.SizerFor[TextRecord]().Fixed() }, 100},
		{"Rating", func() (int64, bool) { return rdd.SizerFor[Rating]().Fixed() }, 24},
		{"ClassTok", func() (int64, bool) { return rdd.SizerFor[ClassTok]().Fixed() }, 32},
		{"NodeFeatBin", func() (int64, bool) { return rdd.SizerFor[NodeFeatBin]().Fixed() }, 32},
		{"Pair[ClassTok,int64]", func() (int64, bool) { return rdd.SizerFor[rdd.Pair[ClassTok, int64]]().Fixed() }, 40},
		{"Pair[int,TextRecord]", func() (int64, bool) { return rdd.SizerFor[rdd.Pair[int, TextRecord]]().Fixed() }, 108},
	}
	for _, c := range cases {
		if f, ok := c.got(); !ok || f != c.want {
			t.Errorf("%s Fixed() = (%d, %v), want (%d, true)", c.name, f, ok, c.want)
		}
	}
}
