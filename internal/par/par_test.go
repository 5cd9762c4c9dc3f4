package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		for _, workers := range []int{-1, 0, 1, 3, n + 5} {
			calls := make([]atomic.Int32, n)
			Do(n, workers, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if got := calls[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: fn(%d) ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// goroutineID reads the running goroutine's id off its stack header — a
// test-only way to tell whether two calls shared a goroutine.
func goroutineID() string {
	buf := make([]byte, 64)
	var id string
	fmt.Sscanf(string(buf[:runtime.Stack(buf, false)]), "goroutine %s", &id)
	return id
}

func TestDoOneWorkerRunsInlineWithoutAllocating(t *testing.T) {
	caller := goroutineID()
	Do(7, 1, func(i int) {
		if id := goroutineID(); id != caller {
			t.Errorf("fn(%d) ran on goroutine %s; the caller is %s", i, id, caller)
		}
	})
	// One job is one worker whatever was asked for.
	Do(1, 8, func(int) {
		if id := goroutineID(); id != caller {
			t.Errorf("a single job ran on goroutine %s; the caller is %s", id, caller)
		}
	})

	var hits [7]int
	fn := func(i int) { hits[i]++ }
	if allocs := testing.AllocsPerRun(100, func() { Do(len(hits), 1, fn) }); allocs != 0 {
		t.Fatalf("Do at one worker allocates %v times per call; want 0", allocs)
	}
}

type plantedError struct{ index int }

func (e *plantedError) Error() string { return fmt.Sprintf("planted at %d", e.index) }

func TestDoRaisesLowestIndexPanicOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				p, ok := r.(*Panic)
				if !ok {
					t.Fatalf("workers=%d: recovered %v; want a *Panic", workers, r)
				}
				if p.Index != 2 {
					t.Errorf("workers=%d: Index = %d; want 2, the lowest planted", workers, p.Index)
				}
				if thrown, ok := p.Value.(*plantedError); !ok || thrown.index != 2 {
					t.Errorf("workers=%d: Value = %v; want the error planted at 2, as thrown", workers, p.Value)
				}
				if len(p.Stack) == 0 {
					t.Errorf("workers=%d: empty Stack", workers)
				}
				var planted *plantedError
				if !errors.As(p, &planted) || planted.index != 2 {
					t.Errorf("workers=%d: errors.As through Unwrap found %v", workers, planted)
				}
			}()
			Do(16, workers, func(i int) {
				if i == 5 || i == 2 {
					panic(&plantedError{i})
				}
			})
			t.Fatalf("workers=%d: Do returned", workers)
		}()
	}
}

func TestDoUnwrapOfNonErrorValueIsNil(t *testing.T) {
	defer func() {
		p := recover().(*Panic)
		if p.Value != "boom" || p.Unwrap() != nil {
			t.Fatalf("Value %v, Unwrap %v; want the string as thrown and nil", p.Value, p.Unwrap())
		}
	}()
	Do(3, 1, func(int) { panic("boom") })
}

// After a panic at index k nothing above k+workers starts: what is in
// flight when k throws finishes, and no worker is handed another index.
// The calls above k park until k is about to throw and then linger, which
// gives the throwing goroutine time to be seen; lingering is slack in the
// safe direction only, the bound itself is asserted exactly.
func TestDoStopsHandingOutAfterPanic(t *testing.T) {
	const n, k = 1000, 10
	for _, workers := range []int{1, 4} {
		var (
			mu         sync.Mutex
			maxStarted int
			parked     = make(chan struct{}, n)
			throwing   = make(chan struct{})
		)
		func() {
			defer func() {
				r := recover()
				if p, ok := r.(*Panic); !ok || p.Index != k {
					t.Fatalf("workers=%d: recovered %v; want the panic planted at %d", workers, r, k)
				}
			}()
			Do(n, workers, func(i int) {
				mu.Lock()
				maxStarted = max(maxStarted, i)
				mu.Unlock()
				switch {
				case i == k:
					for w := 1; w < workers; w++ {
						<-parked // every other worker holds a call above k
					}
					close(throwing)
					panic("boom")
				case i > k:
					parked <- struct{}{}
					<-throwing
					time.Sleep(20 * time.Millisecond)
				}
			})
		}()
		if maxStarted > k+workers {
			t.Errorf("workers=%d: index %d started after the panic at %d", workers, maxStarted, k)
		}
	}
}
