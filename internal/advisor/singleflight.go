package advisor

import (
	"errors"
	"sync"
)

// flightGroup coalesces concurrent calls with the same key into one
// execution: the first caller (the leader) runs fn, every concurrent
// duplicate blocks until the leader finishes and then shares its result.
// This is the classic singleflight shape, rebuilt on the stdlib because
// the module takes no external dependencies.
//
// Completed flights are forgotten, not memoized — persistence is the
// cache's job; the group only collapses the in-flight window.
type flightGroup[T any] struct {
	mu      sync.Mutex
	flights map[string]*flight[T]
}

// flight is one in-progress execution and its eventual outcome.
type flight[T any] struct {
	wg  sync.WaitGroup
	res T
	err error
}

// Do runs fn once per concurrent set of callers sharing key. It reports
// whether this caller shared another caller's execution. A panicking fn
// is converted into an error for every caller (leader included, via
// re-panic after waiters are released) so waiters can never deadlock on
// a leader that died.
func (g *flightGroup[T]) Do(key string, fn func() (T, error)) (res T, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight[T])
	}
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		f.wg.Wait()
		return f.res, true, f.err
	}
	f := &flight[T]{}
	f.wg.Add(1)
	g.flights[key] = f
	g.mu.Unlock()

	panicked := true
	defer func() {
		if panicked {
			f.err = errPanicked
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		f.wg.Done()
	}()
	f.res, f.err = fn()
	panicked = false
	return f.res, false, f.err
}

// errPanicked is what waiters observe when a flight leader panicked.
var errPanicked = errors.New("advisor: query evaluation panicked")
