package advisor

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestFlightGroupSequentialCallsAllExecute(t *testing.T) {
	var g flightGroup[Result]
	var execs atomic.Int64
	for i := 0; i < 3; i++ {
		res, shared, err := g.Do("k", func() (Result, error) {
			execs.Add(1)
			return Result{DurationNS: 42}, nil
		})
		if err != nil || shared {
			t.Fatalf("call %d: err=%v shared=%v", i, err, shared)
		}
		if res.DurationNS != 42 {
			t.Fatalf("call %d: wrong result %+v", i, res)
		}
	}
	// The group coalesces the in-flight window only; it must not memoize.
	if got := execs.Load(); got != 3 {
		t.Fatalf("sequential calls executed %d times; want 3", got)
	}
}

func TestFlightGroupConcurrentCallsAreConsistent(t *testing.T) {
	const n = 32
	var g flightGroup[Result]
	var execs, shares atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, shared, err := g.Do("k", func() (Result, error) {
				execs.Add(1)
				<-release
				return Result{DurationNS: 7}, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				shares.Add(1)
			}
			if res.DurationNS != 7 {
				t.Errorf("wrong result %+v", res)
			}
		}()
	}
	close(release)
	wg.Wait()
	// Every call either led an execution or shared one; nothing is lost
	// and nothing double-counted.
	if execs.Load()+shares.Load() != n {
		t.Fatalf("execs (%d) + shares (%d) != calls (%d)", execs.Load(), shares.Load(), n)
	}
	if execs.Load() < 1 {
		t.Fatal("no execution happened")
	}
}

func TestFlightGroupDistinctKeysDoNotShare(t *testing.T) {
	var g flightGroup[Result]
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		key := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, shared, err := g.Do(key, func() (Result, error) {
				execs.Add(1)
				return Result{}, nil
			})
			if err != nil {
				t.Errorf("Do(%q): %v", key, err)
			}
			if shared {
				t.Errorf("Do(%q) shared across distinct keys", key)
			}
		}()
	}
	wg.Wait()
	if got := execs.Load(); got != 4 {
		t.Fatalf("executed %d times; want 4", got)
	}
}

func TestFlightGroupLeaderPanicReleasesWaiters(t *testing.T) {
	var g flightGroup[Result]

	// The leader's panic must propagate to the leader itself...
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		g.Do("k", func() (Result, error) { panic("boom") })
	}()

	// ...and must not leave a stuck flight behind: the key is reusable.
	res, shared, err := g.Do("k", func() (Result, error) {
		return Result{DurationNS: 9}, nil
	})
	if err != nil || shared || res.DurationNS != 9 {
		t.Fatalf("key unusable after leader panic: res=%+v shared=%v err=%v", res, shared, err)
	}
}
