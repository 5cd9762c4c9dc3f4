package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/hibench"
)

// evaluator is the package's one evaluation path. Every driver plans its
// cells in report order, hands the list over once and folds the answers by
// request index. Behind that sit a memo keyed on hibench.RunSpec.Key (a
// cell is simulated once per evaluator, however many figures ask for it),
// a join on cells another caller already has in flight, and a fan-out of
// the cells still to simulate over min(GOMAXPROCS, cells) workers — inline
// on the caller's goroutine when that is one. An answer depends only on
// the request, never on the worker count or on who simulated the cell. An
// evaluator lives for one Reproduce call or one standalone driver call, so
// nothing outlives a report or leaks between seeds.
type evaluator struct {
	workers int  // test seam: 0 selects GOMAXPROCS
	noMemo  bool // test seam: treat every cell as unkeyable

	mu    sync.Mutex
	cells map[string]*cell
}

// cell is one simulation and its outcome, final once done is closed.
type cell struct {
	done  chan struct{}
	res   hibench.RunResult
	err   error
	crash string // a panic out of hibench.Run, re-raised on every requester
}

func newEvaluator() *evaluator { return &evaluator{cells: make(map[string]*cell)} }

func (c *cell) run(spec hibench.RunSpec) {
	defer close(c.done)
	defer func() {
		if r := recover(); r != nil {
			c.crash = fmt.Sprintf("core: cell %s panicked: %v\n%s", spec, r, debug.Stack())
		}
	}()
	c.res, c.err = hibench.Run(spec)
}

// eval answers specs by request index. Cells that Key reports unkeyable
// (fault plans, tiering, quotas) are simulated every time they are asked
// for. A worker's panic or error is held on its cell and raised here, on
// the caller, for the first failed request in list order.
func (e *evaluator) eval(specs []hibench.RunSpec) ([]hibench.RunResult, error) {
	cells := make([]*cell, len(specs))
	var mine []int // requests whose cell this call simulates
	e.mu.Lock()
	for i, spec := range specs {
		key, ok := spec.Key()
		ok = ok && !e.noMemo
		if ok {
			cells[i] = e.cells[key]
		}
		if cells[i] == nil {
			cells[i] = &cell{done: make(chan struct{})}
			mine = append(mine, i)
			if ok {
				e.cells[key] = cells[i]
			}
		}
	}
	e.mu.Unlock()

	workers := e.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, len(mine)); workers <= 1 {
		for _, i := range mine {
			cells[i].run(specs[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for n := next.Add(1) - 1; n < int64(len(mine)); n = next.Add(1) - 1 {
					cells[mine[n]].run(specs[mine[n]])
				}
			}()
		}
		wg.Wait()
	}

	out := make([]hibench.RunResult, len(specs))
	for i, c := range cells {
		<-c.done // blocks only on a cell a concurrent caller is simulating
		if c.crash != "" {
			panic(c.crash)
		}
		if c.err != nil {
			return nil, c.err
		}
		out[i] = c.res
		out[i].Spec = specs[i]
	}
	return out, nil
}

// Run answers cells whose specs come from validated tables and
// enumerations, so an error is a programming bug and panics; code holding
// user-supplied specs calls hibench.Run and handles the error.
func (e *evaluator) Run(specs ...hibench.RunSpec) []hibench.RunResult {
	return must(e.eval(specs))
}

// Queries answers a planned query list through the same memo: each query
// is resolved to its RunSpec first, so Query{Placement: "tier:2"} and
// RunSpec{Tier: memsim.Tier2} are one entry.
func (e *evaluator) Queries(qs []hibench.Query) ([]hibench.RunResult, error) {
	specs := make([]hibench.RunSpec, len(qs))
	for i, q := range qs {
		var err error
		if specs[i], err = q.Spec(); err != nil {
			return nil, err
		}
	}
	return e.eval(specs)
}

// RunQuery is Queries for one cell, in hibench.QueryRunner shape.
func (e *evaluator) RunQuery(q hibench.Query) (hibench.RunResult, error) {
	out, err := e.Queries([]hibench.Query{q})
	if err != nil {
		return hibench.RunResult{}, err
	}
	return out[0], nil
}

// queryCells is the seam the query-vocabulary drivers evaluate through: a
// planned list in, results by request index out.
type queryCells func([]hibench.Query) ([]hibench.RunResult, error)

// cellsOf adapts an injected runner — the advisor engine's cached one —
// to the batch seam, cell by cell in request order; nil selects a fresh
// evaluator.
func cellsOf(eval hibench.QueryRunner) queryCells {
	if eval == nil {
		return newEvaluator().Queries
	}
	return func(qs []hibench.Query) ([]hibench.RunResult, error) {
		out := make([]hibench.RunResult, len(qs))
		for i, q := range qs {
			var err error
			if out[i], err = eval(q); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// must unwraps the result of a driver whose cells come from validated
// enumerations: an error there is a programming bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
