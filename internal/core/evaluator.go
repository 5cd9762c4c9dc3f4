package core

import (
	"cmp"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/hibench"
	"repro/internal/par"
	"repro/internal/rdd"
	"repro/internal/telemetry"
)

// Evaluator is the package's one evaluation path, and every driver is a
// method on it. A driver plans its cells in report order, hands the list
// over once and folds the answers by request index; Reproduce hands over
// every section's plan in one list. Behind that sit a memo keyed on
// hibench.RunSpec.Key (a cell is simulated once per Evaluator, however
// many figures ask for it), a join on cells another caller already has in
// flight, and a par.Do fan-out of the cells still to simulate over
// GOMAXPROCS workers. The cells one call simulates that read the same
// generated input share a store of its partitions (rdd.GenStore), so each
// distinct partition is generated once per call; they are simulated one
// input group after another, and a group's store goes when its last cell
// ends. An answer depends only on the request, never on the worker count,
// the order cells ran in or on who simulated the cell. Share one Evaluator
// between the drivers of one report; nothing in it outlives the value or
// leaks between seeds.
type Evaluator struct {
	runner     hibench.QueryRunner // answers Queries when non-nil
	workers    int                 // test seam: cell and phase-1 workers; 0 selects GOMAXPROCS
	noMemo     bool                // test seam: treat every cell as unkeyable
	checkPages bool                // test seam: checksum shared generated pages, panic on a write

	mu     sync.Mutex
	cells  map[string]*cell
	ledger HostLedger
	stores int // group stores live now, for ledger.PeakStores
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

// genGroup is the cells of one eval call that read the same generated
// input, and the store they share it through. The group's first cell to
// start opens the store and its last cell to end drops it, so a page lives
// no longer than the cells that can read it, and each of the group's
// partitions is filled once whatever the worker count.
type genGroup struct {
	rank int           // the group's place among the call's groups, by first appearance in the list
	gen  *rdd.GenStore // nil until the first cell starts, and again once the last ends
	left atomic.Int64  // cells still to end
	err  error         // a page a consumer wrote, under checkPages
}

// genGroups groups the cells of mine by the generated input they read,
// their hibench.InputGroup. It returns each one's group, by position in
// mine, and the order to simulate them in, as positions in mine: the
// groups by first appearance, each group's cells in list order. par.Do
// hands positions out in that order, so a group's cells run back to back
// and about one store per worker is open at a time, however many figures
// revisit an input.
func genGroups(specs []hibench.RunSpec, mine []int) (groups []*genGroup, order []int) {
	byInput := make(map[hibench.InputGroup]*genGroup)
	groups = make([]*genGroup, len(mine))
	order = make([]int, len(mine))
	for j, i := range mine {
		in := specs[i].InputGroup()
		g := byInput[in]
		if g == nil {
			g = &genGroup{rank: len(byInput)}
			byInput[in] = g
		}
		g.left.Add(1)
		groups[j], order[j] = g, j
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(groups[a].rank, groups[b].rank) })
	return groups, order
}

// enter starts one cell of g and returns the group's store, opening it for
// the group's first cell.
func (e *Evaluator) enter(g *genGroup) *rdd.GenStore {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g.gen == nil {
		g.gen = rdd.NewGenStore(e.checkPages)
		e.stores++
		e.ledger.PeakStores = max(e.ledger.PeakStores, e.stores)
	}
	return g.gen
}

// leave ends one cell of g, simulated or dropped. The last one checks the
// group's pages, books its generation and derivation in the ledger and
// drops the store.
func (e *Evaluator) leave(g *genGroup) {
	if g.left.Add(-1) > 0 {
		return
	}
	gen := g.gen // every other cell of g has entered and left
	if gen == nil {
		return // each was dropped
	}
	g.gen = nil
	g.err = gen.Verify()
	counts, genSeconds := gen.Counts()
	derived, derivedSeconds := gen.DerivedCounts()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stores--
	for _, c := range counts {
		e.ledger.Gen = rdd.AddGenCount(e.ledger.Gen, c)
	}
	for _, c := range derived {
		e.ledger.Derived = rdd.AddGenCount(e.ledger.Derived, c)
	}
	e.ledger.GenSeconds += genSeconds
	e.ledger.DerivedSeconds += derivedSeconds
}

// run simulates the cell, reading generated partitions from gen, and
// reports whether that succeeded.
func (c *cell) run(spec hibench.RunSpec, gen *rdd.GenStore) bool {
	defer close(c.done)
	defer func() {
		if r := recover(); r != nil {
			c.err = &cellPanic{spec, r, debug.Stack()}
		}
	}()
	c.res, c.err = hibench.RunShared(spec, gen)
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
// time they are asked for. The cells this call simulates run in input
// group order (genGroups), not list order. A worker's panic or error is
// held on its cell and raised here, on the caller, for the first failed
// request in list order; cells later in list order than a failed one that
// have not started are dropped. Only those are, and a cell earlier in the
// list always runs, whenever its group comes up, so the failure raised is
// the same at every worker count.
func (e *Evaluator) eval(specs []hibench.RunSpec) ([]hibench.RunResult, error) {
	sw := telemetry.StartStopwatch()
	cells := make([]*cell, len(specs))
	var mine []int // requests whose cell this call simulates, in list order
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

	groups, order := genGroups(specs, mine)
	var failedAt atomic.Int64 // position in mine of the first failure so far, so list order
	failedAt.Store(int64(len(mine)))
	par.Do(len(order), e.workers, func(k int) {
		j := order[k]
		n := int64(j)
		spec := specs[mine[j]]
		if e.workers > 0 {
			spec.TaskParallelism = e.workers // host-only: Key ignores it, out[i].Spec overwrites it
		}
		g := groups[j]
		if c := cells[mine[j]]; failedAt.Load() < n {
			e.drop(c)
		} else if !c.run(spec, e.enter(g)) {
			for at := failedAt.Load(); n < at && !failedAt.CompareAndSwap(at, n); at = failedAt.Load() {
			}
		}
		e.leave(g)
	})
	for _, g := range groups {
		if g.err != nil {
			panic(g.err)
		}
	}
	e.account(len(specs), len(mine), sw)

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
	specs, err := resolve(qs)
	if err != nil {
		return nil, err
	}
	return e.eval(specs)
}

// resolve turns queries into the RunSpecs they name, by request index.
func resolve(qs []hibench.Query) ([]hibench.RunSpec, error) {
	specs := make([]hibench.RunSpec, len(qs))
	for i, q := range qs {
		var err error
		if specs[i], err = q.Spec(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// plan is one driver split in two: the cells it asks for in request
// order, as RunSpecs or, for a query-vocabulary driver, as Queries, and
// the fold that turns their answers, by request index, into the driver's
// result. A driver's exported method runs its plan as one batch;
// Reproduce answers every section's plan in one (report).
type plan[T any] struct {
	specs []hibench.RunSpec
	qs    []hibench.Query // set instead of specs by a query-vocabulary driver
	fold  func([]hibench.RunResult) T
}

// run answers p as a batch of its own and folds the answers.
func (p plan[T]) run(e *Evaluator) (T, error) {
	var res []hibench.RunResult
	var err error
	if p.qs != nil {
		res, err = e.Queries(p.qs)
	} else {
		res, err = e.eval(p.specs)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return p.fold(res), nil
}

// must unwraps the result of a driver whose cells come from validated
// enumerations: an error there is a programming bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
