package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/executor"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

// sharedEval is the evaluator the seed-1 tests of this package share: a
// cell several of them ask for is simulated once per test process. Tests
// that compare two evaluations build their own.
var sharedEval = sync.OnceValue(func() *Evaluator { return NewEvaluator(nil) })

// sharedQuery is sharedEval in hibench.QueryRunner shape, for tests of the
// injected-runner path: NewEvaluator(sharedQuery).
func sharedQuery(q hibench.Query) (hibench.RunResult, error) {
	out, err := sharedEval().Queries([]hibench.Query{q})
	if err != nil {
		return hibench.RunResult{}, err
	}
	return out[0], nil
}

// sameMap reports whether two results share one Engine map — the mark of
// one simulation answering both.
func sameMap(a, b hibench.RunResult) bool {
	return reflect.ValueOf(a.Engine).Pointer() == reflect.ValueOf(b.Engine).Pointer()
}

// A hit hands the requester its own spec on a shallow copy of the one
// simulation, both vocabularies meet in one entry, and an unkeyable cell
// is simulated every time.
func TestEvaluatorMemoHitHygiene(t *testing.T) {
	ev := NewEvaluator(nil)
	first := hibench.RunSpec{Workload: "repartition", Size: workloads.Tiny, Tier: memsim.Tier2}
	uniform := executor.UniformPlacement(memsim.Tier2)
	respelled := hibench.RunSpec{Workload: "repartition", Size: workloads.Tiny, Tier: memsim.Tier2,
		Executors: 1, CoresPerExecutor: 40, BandwidthCap: 1, Placement: &uniform, TaskParallelism: 2, Seed: 1}

	out := ev.Run(first, respelled)
	if !sameMap(out[0], out[1]) {
		t.Fatal("respelled cell was simulated again")
	}
	if out[0].Spec != first.WithDefaults() || out[1].Spec != respelled.WithDefaults() {
		t.Errorf("results carry specs %+v and %+v, want each requester's own as hibench.Run returns it", out[0].Spec, out[1].Spec)
	}
	if out[0].Duration != out[1].Duration || out[0].Duration <= 0 {
		t.Errorf("durations %v and %v", out[0].Duration, out[1].Duration)
	}

	viaQuery := must(ev.Queries([]hibench.Query{{Workload: "repartition", Size: "tiny", Placement: "tier:2"}}))
	if !sameMap(out[0], viaQuery[0]) {
		t.Error("Query{tier:2} and RunSpec{Tier2} are two memo entries")
	}

	cfg := tiering.DefaultConfig(tiering.Static)
	tiered := first
	tiered.Tiering = &cfg
	again := ev.Run(tiered, tiered)
	if sameMap(again[0], again[1]) {
		t.Error("a cell carrying a tiering config was memoised")
	}
	if len(ev.cells) != 1 {
		t.Errorf("memo holds %d entries, want 1", len(ev.cells))
	}
}

// The same list, with repeats, answers identically by request index at 1
// and 8 workers, with and without the memo.
func TestEvaluatorAnswersByRequestIndex(t *testing.T) {
	var specs []hibench.RunSpec
	for _, w := range []string{"als", "sort", "als", "bayes", "sort", "als"} {
		for _, tier := range []memsim.TierID{memsim.Tier2, memsim.Tier0} {
			specs = append(specs, hibench.RunSpec{Workload: w, Size: workloads.Tiny, Tier: tier})
		}
	}
	var serial []hibench.RunResult
	for _, workers := range []int{1, 8} {
		want := (&Evaluator{workers: workers, noMemo: true, cells: map[string]*cell{}}).Run(specs...)
		ev := NewEvaluator(nil)
		ev.workers = workers
		got := ev.Run(specs...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: memoised results differ from the unmemoised run", workers)
		}
		if len(ev.cells) != 6 {
			t.Errorf("%d workers: simulated %d distinct cells, want 6", workers, len(ev.cells))
		}
		if serial == nil {
			serial = want
		} else if !reflect.DeepEqual(got, serial) {
			t.Errorf("%d workers: results differ from the serial run", workers)
		}
	}
	for i, res := range serial {
		if res.Spec != specs[i].WithDefaults() {
			t.Errorf("result %d answers %s, want %s", i, res.Spec, specs[i])
		}
	}
}

// Many goroutines asking one evaluator for the same cells join the
// flights in progress and fold the shared results concurrently; run under
// -race this is the proof that hits are read-only.
func TestEvaluatorConcurrentFold(t *testing.T) {
	ev := NewEvaluator(nil)
	ev.workers = 2
	cfg := tiering.DefaultConfig(tiering.Static)
	specs := []hibench.RunSpec{
		{Workload: "repartition", Size: workloads.Tiny, Tier: memsim.Tier0},
		{Workload: "als", Size: workloads.Tiny, Tier: memsim.Tier2},
		{Workload: "als", Size: workloads.Tiny, Tier: memsim.Tier0, Tiering: &cfg},
	}
	const callers = 8
	sums := make([]string, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func() {
			defer wg.Done()
			var engine int64
			var epochs int
			out := ev.Run(specs...)
			for _, res := range out {
				for _, v := range res.Engine {
					engine += v
				}
				epochs += len(res.Heatmaps)
			}
			sums[g] = fmt.Sprint(out[0].Duration, out[1].Duration, out[2].Duration, engine, epochs)
		}()
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if sums[g] != sums[0] {
			t.Errorf("caller %d folded %s, caller 0 folded %s", g, sums[g], sums[0])
		}
	}
	if len(ev.cells) != 2 {
		t.Errorf("memo holds %d entries, want the 2 keyable cells", len(ev.cells))
	}
}

// A worker's failure surfaces on the caller, and it is the first failed
// request in list order that surfaces, whichever worker finished first and
// whichever input group ran first: a panic as thrown, under its stack.
// Cells behind the failure in list order that had not started are dropped
// from the batch and the memo, not simulated; cells before it never are.
func TestEvaluatorFailuresInRequestOrder(t *testing.T) {
	good := hibench.RunSpec{Workload: "repartition", Size: workloads.Tiny}
	unknown := hibench.RunSpec{Workload: "nope", Size: workloads.Tiny}
	crashing := hibench.RunSpec{Workload: "repartition", Size: workloads.Size(99)}
	for _, workers := range []int{1, 4} {
		ev := NewEvaluator(nil)
		ev.workers = workers

		if _, err := ev.eval([]hibench.RunSpec{good, unknown, crashing}); err == nil || !strings.Contains(err.Error(), "nope") {
			t.Errorf("%d workers: error-first list returned %v, want the unknown-workload error", workers, err)
		}
		func() {
			defer func() {
				p, _ := recover().(*cellPanic)
				if p == nil || p.value == nil || !strings.Contains(p.Error(), "goroutine") {
					t.Errorf("%d workers: crash-first list recovered %v, want the cell's panic and stack", workers, p)
				}
			}()
			ev.Run(good, crashing, unknown)
		}()
		if _, err := ev.Queries([]hibench.Query{{Workload: "repartition", Size: "tiny", Placement: "tier:9"}}); err == nil {
			t.Errorf("%d workers: malformed query accepted", workers)
		}
	}

	ev := NewEvaluator(nil)
	ev.workers = 1
	late := hibench.RunSpec{Workload: "als", Size: workloads.Tiny}
	if _, err := ev.eval([]hibench.RunSpec{good, unknown, late}); err == nil || len(ev.cells) != 2 {
		t.Errorf("failed batch returned %v and left %d memo entries, want an error and the 2 cells it ran", err, len(ev.cells))
	}
	if res := ev.Run(late, good); res[0].Duration <= 0 || len(ev.cells) != 3 {
		t.Errorf("dropped cell answered %v on the next request, memo holds %d entries", res[0].Duration, len(ev.cells))
	}

	// Cells run in input-group order, so the repartition group's failing
	// cell (list position 3) runs before the unknown workload (position 2),
	// whose group comes up third. Position 2's error is still the one
	// raised, at 1 and 8 workers, and nothing listed before it is dropped.
	badCap := good
	badCap.BandwidthCap = 2
	specs := []hibench.RunSpec{
		good,
		{Workload: "als", Size: workloads.Tiny},
		unknown,
		badCap,
		{Workload: "als", Size: workloads.Tiny, Tier: memsim.Tier2},
		{Workload: "repartition", Size: workloads.Tiny, Tier: memsim.Tier2},
	}
	for _, workers := range []int{1, 8} {
		ev := NewEvaluator(nil)
		ev.workers = workers
		if _, err := ev.eval(specs); err == nil || !strings.Contains(err.Error(), "nope") {
			t.Errorf("%d workers: returned %v, want the unknown-workload error of list position 2", workers, err)
		}
		for i, spec := range specs[:3] {
			key, _ := spec.Key()
			if c := ev.cells[key]; c == nil || errors.Is(c.err, errDropped) {
				t.Errorf("%d workers: list position %d, before the first failure, was dropped", workers, i)
			}
		}
	}
	if got, _ := genGroups(specs, []int{0, 1, 2, 3, 4, 5}); got[0] != got[3] || got[0] == got[1] || got[2] == got[1] {
		t.Error("cells that read one input are not one group")
	}

	if !errors.Is(&cellPanic{value: errDropped}, errDropped) {
		t.Error("a typed panic value is not reachable through cellPanic")
	}
}

// An injected runner answers the query-vocabulary drivers, one call per
// planned cell — in plan order at one worker — its error comes back to the
// caller as returned, and the RunSpec drivers keep simulating locally
// beside it.
func TestInjectedRunnerAnswersQueriesInRequestOrder(t *testing.T) {
	var mu sync.Mutex
	var asked []string
	failOn := "none"
	ev := NewEvaluator(func(q hibench.Query) (hibench.RunResult, error) {
		mu.Lock()
		defer mu.Unlock()
		asked = append(asked, q.Placement+"/"+q.Policy)
		if strings.HasPrefix(q.Policy, failOn) {
			return hibench.RunResult{}, errors.New("runner down at " + q.Policy)
		}
		return hibench.RunResult{Duration: 1 + sim.Time(len(q.Policy))}, nil
	})
	ev.workers = 1
	results, err := ev.WhatIf([]string{"sort"}, workloads.Tiny, 1)
	scenarios := memsim.CapacityScenarios()
	if err != nil || len(results) != len(scenarios) {
		t.Fatalf("what-if through a fake runner: %d results, err %v", len(results), err)
	}
	want := []string{"tier:0/"}
	for _, sc := range scenarios {
		want = append(want, "tier:2/"+sc.Name)
	}
	if !reflect.DeepEqual(asked, want) {
		t.Errorf("runner was asked %v, want %v", asked, want)
	}
	if len(ev.cells) != 0 {
		t.Errorf("injected runner's cells reached the local memo (%d entries)", len(ev.cells))
	}

	// The fan-out answers by request index at any worker count, and of
	// several failed cells the first in list order is the one reported.
	ev.workers = 8
	qs := make([]hibench.Query, 40)
	for i := range qs {
		qs[i] = hibench.Query{Workload: "sort", Size: "tiny", Placement: "tier:2", Policy: strings.Repeat("p", i)}
	}
	out, err := ev.Queries(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res.Duration != sim.Time(1+i) {
			t.Fatalf("request %d answered with %v, want %v", i, res.Duration, sim.Time(1+i))
		}
	}
	failOn = strings.Repeat("p", 7) // fails every cell from index 7 on
	if _, err := ev.Queries(qs); err == nil || err.Error() != "runner down at "+failOn {
		t.Errorf("failing runner returned %v, want the error of request 7", err)
	}
	adv := TierAdvisor{Ev: ev}
	failOn = "none"
	if err := adv.Train([]string{"sort"}, 1); err != nil {
		t.Errorf("Train through the fake: %v", err)
	}

	if c := ev.CopyStudy([]string{"repartition"}, workloads.Tiny, 1); len(c.Points) != 2 || len(ev.cells) != 2 {
		t.Errorf("RunSpec driver beside a runner: %d points, %d memo entries, want 2 and 2", len(c.Points), len(ev.cells))
	}
}
