package shuffle

import (
	"errors"
	"testing"
	"testing/quick"
)

// get is one map task's chunk set, nil if it wrote nothing.
func (s *Store) get(shuffleID, mapPart int) *ChunkSet { return s.shuffles[shuffleID].byMap[mapPart] }

// set builds a chunk set whose per-reduce sizes are given; items default
// to 1 record per non-zero-byte chunk unless explicit items are passed.
func set(shuffleID, mapPart, execID int, chunks any, items []int, bytes []int64) *ChunkSet {
	return &ChunkSet{
		Shuffle: shuffleID, MapPart: mapPart, ExecID: execID,
		Chunks: chunks, Items: items, Bytes: bytes,
	}
}

func TestRegisterPutGet(t *testing.T) {
	s := NewStore()
	s.RegisterShuffle(1, 3)
	if st := s.shuffles[1]; st == nil || s.shuffles[2] != nil {
		t.Fatal("registration state wrong")
	} else if st.numMapParts != 3 {
		t.Fatalf("map parts = %d, want 3", st.numMapParts)
	}
	s.PutChunks(set(1, 0, 7, [][]int{nil, nil, {1, 2}}, []int{0, 0, 2}, []int64{0, 0, 64}))
	cs := s.get(1, 0)
	if cs == nil || cs.Items[2] != 2 || cs.Bytes[2] != 64 || cs.ExecID != 7 {
		t.Fatalf("chunk set = %+v", cs)
	}
	if cs.TotalBytes() != 64 || cs.NonEmpty() != 1 {
		t.Fatalf("TotalBytes/NonEmpty = %d/%d, want 64/1", cs.TotalBytes(), cs.NonEmpty())
	}
	if s.get(1, 1) != nil {
		t.Fatal("phantom chunk set")
	}
}

func TestInputsOrderedWithGaps(t *testing.T) {
	s := NewStore()
	s.RegisterShuffle(5, 4)
	s.PutChunks(set(5, 2, 0, "m2", []int{1}, []int64{10}))
	s.PutChunks(set(5, 0, 0, "m0", []int{1}, []int64{10}))
	in, err := s.Inputs(5, 0)
	if err != nil {
		t.Fatalf("Inputs: %v", err)
	}
	if len(in) != 4 {
		t.Fatalf("inputs len = %d, want 4", len(in))
	}
	if in[0] == nil || in[0].Chunks.(string) != "m0" {
		t.Fatal("map 0 chunk set wrong")
	}
	if in[1] != nil || in[3] != nil {
		t.Fatal("gaps must be nil")
	}
	if in[2] == nil || in[2].Chunks.(string) != "m2" {
		t.Fatal("map 2 chunk set wrong")
	}
}

func TestTotalBytesAndReplace(t *testing.T) {
	s := NewStore()
	s.RegisterShuffle(1, 2)
	s.PutChunks(set(1, 0, 0, nil, []int{1}, []int64{100}))
	s.PutChunks(set(1, 1, 0, nil, []int{1}, []int64{50}))
	if s.TotalBytes() != 150 {
		t.Fatalf("total = %d, want 150", s.TotalBytes())
	}
	s.PutChunks(set(1, 0, 0, nil, []int{1}, []int64{30})) // replace
	if s.TotalBytes() != 80 {
		t.Fatalf("total after replace = %d, want 80", s.TotalBytes())
	}
}

func TestDropShuffle(t *testing.T) {
	s := NewStore()
	s.RegisterShuffle(1, 1)
	s.RegisterShuffle(2, 1)
	s.PutChunks(set(1, 0, 0, nil, []int{1}, []int64{100}))
	s.PutChunks(set(2, 0, 0, nil, []int{1}, []int64{40}))
	s.DropShuffle(1)
	if s.shuffles[1] != nil {
		t.Fatal("shuffle 1 still registered after drop")
	}
	if s.TotalBytes() != 40 {
		t.Fatalf("total = %d, want 40", s.TotalBytes())
	}
	if s.get(2, 0) == nil {
		t.Fatal("shuffle 2 collateral damage")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	s := NewStore()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero map parts", func() { s.RegisterShuffle(1, 0) })
	mustPanic("put unregistered", func() { s.PutChunks(set(9, 0, 0, nil, nil, nil)) })
	mustPanic("inputs unregistered", func() {
		if _, err := s.Inputs(9, 0); err != nil {
			t.Errorf("unexpected error before panic: %v", err)
		}
	})
	s.RegisterShuffle(1, 2)
	mustPanic("map part out of range", func() { s.PutChunks(set(1, 2, 0, nil, nil, nil)) })
}

func TestDeregisterExecutorMarksOutputsLost(t *testing.T) {
	s := NewStore()
	s.RegisterShuffle(1, 3)
	// segments = non-empty per-reduce chunks: map 1 feeds both reduces.
	s.PutChunks(set(1, 0, 0, "a", []int{1, 0}, []int64{100, 0}))
	s.PutChunks(set(1, 1, 1, "bd", []int{1, 1}, []int64{50, 10}))
	s.PutChunks(set(1, 2, 1, "c", []int{1, 0}, []int64{25, 0}))

	segs, bytes := s.DeregisterExecutor(1)
	if segs != 3 || bytes != 85 {
		t.Fatalf("deregister = (%d segs, %d bytes), want (3, 85)", segs, bytes)
	}
	if s.TotalBytes() != 100 {
		t.Fatalf("total = %d, want 100", s.TotalBytes())
	}
	if got := s.LostMapParts(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("LostMapParts = %v, want [1 2]", got)
	}

	// A fetch touching a lost output fails typed; a live one succeeds.
	if _, err := s.Inputs(1, 0); err == nil {
		t.Fatal("Inputs over lost outputs did not fail")
	} else {
		var lost *SegmentLostError
		if !errors.As(err, &lost) || lost.Shuffle != 1 || lost.MapPart != 1 || lost.Reduce != 0 {
			t.Fatalf("err = %v, want SegmentLostError{1,1,0}", err)
		}
	}

	// Resubmitted map outputs clear the lost marks.
	s.PutChunks(set(1, 1, 0, "bd'", []int{1, 1}, []int64{50, 10}))
	s.PutChunks(set(1, 2, 0, "c'", []int{1, 0}, []int64{25, 0}))
	if _, err := s.Inputs(1, 0); err != nil {
		t.Fatalf("Inputs after resubmission: %v", err)
	}
	if got := s.LostMapParts(1); got != nil {
		t.Fatalf("LostMapParts after resubmission = %v, want nil", got)
	}
}

func TestDropShuffleClearsLostMarks(t *testing.T) {
	s := NewStore()
	s.RegisterShuffle(1, 1)
	s.PutChunks(set(1, 0, 3, nil, []int{1}, []int64{10}))
	s.DeregisterExecutor(3)
	s.DropShuffle(1)
	s.RegisterShuffle(1, 1)
	if got := s.LostMapParts(1); got != nil {
		t.Fatalf("lost marks %v survived DropShuffle", got)
	}
}

// Dropped chunk sets must be invalidated in place: a reduce task that
// fetched before an executor crash (or before shuffle cleanup) may still
// hold the *ChunkSet across the FetchFailed resubmission, and reading the
// freed payload would resurrect stale records the resubmitted map task
// has since replaced. Invalidation turns that read into a loud nil.
func TestDroppedChunkSetsAreInvalidated(t *testing.T) {
	s := NewStore()
	s.RegisterShuffle(1, 2)
	s.PutChunks(set(1, 0, 1, []string{"stale"}, []int{1}, []int64{10}))
	s.PutChunks(set(1, 1, 0, []string{"live"}, []int{1}, []int64{10}))
	in, err := s.Inputs(1, 0)
	if err != nil {
		t.Fatalf("Inputs: %v", err)
	}
	stale, live := in[0], in[1]

	// Executor 1 crashes: its set is invalidated, the survivor is not.
	s.DeregisterExecutor(1)
	if stale.Chunks != nil {
		t.Fatal("crashed executor's chunk set still holds its payload")
	}
	if live.Chunks == nil {
		t.Fatal("surviving chunk set was collaterally invalidated")
	}

	// The resubmitted map task's output is a fresh set; the stale
	// reference stays dead rather than aliasing the new records.
	s.PutChunks(set(1, 0, 0, []string{"fresh"}, []int{1}, []int64{10}))
	if stale.Chunks != nil {
		t.Fatal("stale reference resurrected by resubmission")
	}
	if s.get(1, 0).Chunks.([]string)[0] != "fresh" {
		t.Fatal("resubmitted output wrong")
	}

	// Replacing an output invalidates the replaced set, and dropping the
	// shuffle invalidates everything still live.
	replaced := s.get(1, 0)
	s.PutChunks(set(1, 0, 0, []string{"fresh2"}, []int{1}, []int64{10}))
	if replaced.Chunks != nil {
		t.Fatal("replaced chunk set still holds its payload")
	}
	s.DropShuffle(1)
	if live.Chunks != nil {
		t.Fatal("DropShuffle left a chunk set's payload reachable")
	}
}

// ledgerLog records chunk residency callbacks for assertions.
type ledgerLog struct {
	puts, drops int
	bytes       int64
}

func (l *ledgerLog) ChunkPut(shuffleID, mapPart int, bytes int64) {
	l.puts++
	l.bytes += bytes
}

func (l *ledgerLog) ChunkDropped(shuffleID, mapPart int) { l.drops++ }

func TestLedgerSeesPutsAndDrops(t *testing.T) {
	s := NewStore()
	led := &ledgerLog{}
	s.SetLedger(led)
	s.RegisterShuffle(1, 2)
	s.PutChunks(set(1, 0, 0, nil, []int{1}, []int64{100}))
	s.PutChunks(set(1, 1, 1, nil, []int{1}, []int64{50}))
	s.PutChunks(set(1, 0, 0, nil, []int{1}, []int64{30})) // replace: drop + put
	if led.puts != 3 || led.drops != 1 || led.bytes != 180 {
		t.Fatalf("after puts: %+v, want 3 puts, 1 drop, 180 bytes", led)
	}
	s.DeregisterExecutor(1)
	if led.drops != 2 {
		t.Fatalf("crash drops = %d, want 2", led.drops)
	}
	s.DropShuffle(1)
	if led.drops != 3 {
		t.Fatalf("final drops = %d, want 3", led.drops)
	}
}

// Property: TotalBytes always equals the sum of live chunk-set sizes.
func TestTotalBytesInvariantProperty(t *testing.T) {
	prop := func(ops []struct {
		Map   uint8
		Bytes [4]uint16
	}) bool {
		s := NewStore()
		s.RegisterShuffle(0, 16)
		live := map[int]int64{}
		for _, op := range ops {
			m := int(op.Map % 16)
			items := make([]int, len(op.Bytes))
			bytes := make([]int64, len(op.Bytes))
			var total int64
			for r, b := range op.Bytes {
				items[r] = 1
				bytes[r] = int64(b)
				total += int64(b)
			}
			s.PutChunks(set(0, m, 0, nil, items, bytes))
			live[m] = total
		}
		var want int64
		for _, b := range live {
			want += b
		}
		return s.TotalBytes() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
