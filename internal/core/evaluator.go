package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/hibench"
	"repro/internal/par"
)

// Evaluator is the package's one evaluation path, and every driver is a
// method on it. A driver plans its cells in report order, hands the list
// over once and folds the answers by request index. Behind that sit a memo
// keyed on hibench.RunSpec.Key (a cell is simulated once per Evaluator,
// however many figures ask for it), a join on cells another caller already
// has in flight, and a par.Do fan-out of the cells still to simulate over
// GOMAXPROCS workers. An answer depends only on the request, never on the
// worker count or on who simulated the cell. Share one Evaluator between
// the drivers of one report; nothing in it outlives the value or leaks
// between seeds.
type Evaluator struct {
	runner  hibench.QueryRunner // answers Queries when non-nil
	workers int                 // test seam: cell and phase-1 workers; 0 selects GOMAXPROCS
	noMemo  bool                // test seam: treat every cell as unkeyable

	mu    sync.Mutex
	cells map[string]*cell
}

// cell is one simulation and its outcome, final once done is closed.
type cell struct {
	key  string // its memo entry; "" for a cell that has none
	done chan struct{}
	res  hibench.RunResult
	err  error // a *cellPanic for a panic out of hibench.Run
}

// cellPanic carries a panic out of hibench.Run to every requester of the
// cell: the value as thrown, so errors.As still reaches a typed one, beside
// the stack of the goroutine that threw it.
type cellPanic struct {
	spec  hibench.RunSpec
	value any
	stack []byte
}

func (p *cellPanic) Error() string {
	return fmt.Sprintf("core: cell %s panicked: %v\n%s", p.spec, p.value, p.stack)
}

func (p *cellPanic) Unwrap() error { err, _ := p.value.(error); return err }

var errDropped = errors.New("core: cell not simulated: an earlier cell of its batch failed")

// NewEvaluator returns an empty Evaluator. A nil runner simulates every
// cell locally through the memo. A non-nil one — the advisor engine's
// cached, deduplicated RunQuery — answers the query-vocabulary drivers
// (WhatIf, PlacementStudy, InterleaveSweep, ComparePredictors and the
// TierAdvisor) instead, which is what turns their repeated sweeps into
// cache lookups.
func NewEvaluator(runner hibench.QueryRunner) *Evaluator {
	return &Evaluator{runner: runner, cells: make(map[string]*cell)}
}

// run simulates the cell and reports whether that succeeded.
func (c *cell) run(spec hibench.RunSpec) bool {
	defer close(c.done)
	defer func() {
		if r := recover(); r != nil {
			c.err = &cellPanic{spec, r, debug.Stack()}
		}
	}()
	c.res, c.err = hibench.Run(spec)
	return c.err == nil
}

// drop ends a cell unsimulated and takes it out of the memo, so that a
// later request simulates it.
func (e *Evaluator) drop(c *cell) {
	e.mu.Lock()
	delete(e.cells, c.key)
	e.mu.Unlock()
	c.err = errDropped
	close(c.done)
}

// eval answers specs by request index, each result carrying its
// requester's spec as hibench.Run would have returned it. Cells that Key
// reports unkeyable (fault plans, tiering, quotas) are simulated every
// time they are asked for. A worker's panic or error is held on its cell
// and raised here, on the caller, for the first failed request in list
// order; cells behind a failed one that have not started are dropped. Only
// those are, so the failure raised is the same at every worker count.
func (e *Evaluator) eval(specs []hibench.RunSpec) ([]hibench.RunResult, error) {
	cells := make([]*cell, len(specs))
	var mine []int // requests whose cell this call simulates
	e.mu.Lock()
	for i, spec := range specs {
		key, ok := spec.Key()
		if !ok || e.noMemo {
			key = ""
		} else {
			cells[i] = e.cells[key]
		}
		if cells[i] == nil {
			cells[i] = &cell{key: key, done: make(chan struct{})}
			mine = append(mine, i)
			if key != "" {
				e.cells[key] = cells[i]
			}
		}
	}
	e.mu.Unlock()

	var failedAt atomic.Int64 // index into mine
	failedAt.Store(int64(len(mine)))
	par.Do(len(mine), e.workers, func(j int) {
		n := int64(j)
		spec := specs[mine[n]]
		if e.workers > 0 {
			spec.TaskParallelism = e.workers // host-only: Key ignores it, out[i].Spec overwrites it
		}
		if c := cells[mine[n]]; failedAt.Load() < n {
			e.drop(c)
		} else if !c.run(spec) {
			for at := failedAt.Load(); n < at && !failedAt.CompareAndSwap(at, n); at = failedAt.Load() {
			}
		}
	})

	out := make([]hibench.RunResult, len(specs))
	for i, c := range cells {
		<-c.done // blocks only on a cell a concurrent caller is simulating
		if p, ok := c.err.(*cellPanic); ok {
			panic(p)
		}
		if c.err != nil {
			return nil, c.err
		}
		out[i] = c.res
		out[i].Spec = specs[i].WithDefaults()
	}
	return out, nil
}

// Run answers cells whose specs come from validated tables and
// enumerations, so an error is a programming bug and panics; code holding
// user-supplied specs calls hibench.Run and handles the error.
func (e *Evaluator) Run(specs ...hibench.RunSpec) []hibench.RunResult {
	return must(e.eval(specs))
}

// Queries answers a planned query list by request index. An injected
// runner is asked for the cells through the same par.Do fan-out as eval's
// (it joins duplicate in-flight cells itself), and the first error in list
// order is the one returned; without one each query is resolved to its
// RunSpec and goes through the memo, so Query{Placement: "tier:2"} and
// RunSpec{Tier: memsim.Tier2} are one entry.
func (e *Evaluator) Queries(qs []hibench.Query) ([]hibench.RunResult, error) {
	//simlint:allow locksafety runner is set by NewEvaluator and never written again
	if run := e.runner; run != nil {
		out := make([]hibench.RunResult, len(qs))
		errs := make([]error, len(qs))
		par.Do(len(qs), e.workers, func(i int) { out[i], errs[i] = run(qs[i]) })
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	specs := make([]hibench.RunSpec, len(qs))
	for i, q := range qs {
		var err error
		if specs[i], err = q.Spec(); err != nil {
			return nil, err
		}
	}
	return e.eval(specs)
}

// must unwraps the result of a driver whose cells come from validated
// enumerations: an error there is a programming bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
