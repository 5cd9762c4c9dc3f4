// Package par is the repository's one fan-out: every place that runs n
// indexed jobs on a bounded set of goroutines — tasks in a stage, cells in
// a report, queries in an advisor batch, simlint's analyzer runs, the load
// generator's requests — calls Do and keeps its answers by index, so an
// answer never depends on the worker count.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is a panic out of one fn call, carried to Do's caller: the value as
// thrown, so errors.As still reaches a typed one, beside the stack of the
// goroutine that threw it.
type Panic struct {
	Index int
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("par: call %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

func (p *Panic) Unwrap() error { err, _ := p.Value.(error); return err }

// Do calls fn(i) once for every i in [0, n) on min(workers, n) goroutines,
// the caller among them — inline, with no goroutine started and nothing
// allocated, when that is one. workers <= 0 selects GOMAXPROCS. Indexes are
// handed out in increasing order. A panic in fn stops the handing out; once
// every started call has returned, Do panics on the caller with the *Panic
// of the lowest index that panicked.
func Do(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if p := call(i, fn); p != nil {
				panic(p)
			}
		}
		return
	}
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		first  *Panic
		wg     sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
			p := call(i, fn)
			if p == nil {
				continue
			}
			cursor.Store(int64(n)) // hand out nothing further
			mu.Lock()
			if first == nil || p.Index < first.Index {
				first = p
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// call runs fn(i) and returns its panic, if it threw one.
func call(i int, fn func(int)) (p *Panic) {
	defer func() {
		if r := recover(); r != nil {
			p = &Panic{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}
