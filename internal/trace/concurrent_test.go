package trace

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

// Concurrent Add calls (phase-1 workers emitting spans while the driver
// records stage spans) must be race-free and lose no spans.
func TestRecorderConcurrentAdd(t *testing.T) {
	var r Recorder
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				start := sim.Time(w*perWorker + i)
				r.Add(Span{Name: "task", Category: "task", Start: start, End: start + 1})
			}
		}(w)
	}
	wg.Wait()
	if len(r.Spans()) != workers*perWorker {
		t.Fatalf("lost spans: %d, want %d", len(r.Spans()), workers*perWorker)
	}
}

// Spans must return a copy: appending more spans while a caller iterates a
// previous snapshot must not share backing storage.
func TestRecorderSpansIsACopy(t *testing.T) {
	var r Recorder
	r.Add(Span{Name: "a", Category: "stage", Start: 0, End: 1})
	snap := r.Spans()
	snap[0].Name = "mutated"
	if r.Spans()[0].Name != "a" {
		t.Fatal("mutating a Spans snapshot leaked into the recorder")
	}
}
