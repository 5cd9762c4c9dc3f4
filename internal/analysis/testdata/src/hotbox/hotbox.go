// Package hotbox is simlint test input: boxing measurement calls on
// task-compute paths, and reflection-based sorts there and under a
// tiering tick. Line positions are pinned by hotbox.golden.
package hotbox

import (
	"slices"
	"sort"

	"repro/internal/executor"
	"repro/internal/heat"
	"repro/internal/rdd"
)

// badMeasure takes a TaskContext, so it is task-compute code; the
// per-record SizeOf boxes every element.
func badMeasure(ctx *executor.TaskContext, recs []rdd.Pair[string, int64]) int64 {
	_ = ctx
	var total int64
	for _, r := range recs {
		total += rdd.SizeOf(any(r))
	}
	return total
}

// badRoute boxes every key on its way to a partition.
func badRoute(ctx *executor.TaskContext, keys []string) int {
	_ = ctx
	n := 0
	for _, k := range keys {
		n += rdd.PartitionOf(k, 8)
	}
	return n
}

// badHash is reachable from taskEntry, so its boxing hash is also
// task-compute code.
func badHash(k string) uint64 { return rdd.HashAny(k) }

func taskEntry(ctx *executor.TaskContext) uint64 {
	_ = ctx
	return badHash("x")
}

// measurer reaches a concrete implementation through an interface; taint
// must bridge the call anyway.
type measurer interface{ measure(v string) int64 }

type boxingMeasurer struct{}

func (boxingMeasurer) measure(v string) int64 { return rdd.SizeOf(any(v)) }

func viaInterface(ctx *executor.TaskContext, m measurer) int64 {
	_ = ctx
	return m.measure("y")
}

// driverSize is never reached from a TaskContext function; driver code
// may box freely (it runs once, not per record).
func driverSize(v any) int64 { return rdd.SizeOf(v) }

// goodMeasure stays on the specialized path and is clean.
func goodMeasure(ctx *executor.TaskContext, recs []rdd.Pair[string, int64]) int64 {
	_ = ctx
	return rdd.SizeOfSlice(recs)
}

// allowedFallback documents a deliberate exception with a directive.
func allowedFallback(ctx *executor.TaskContext, k string) uint64 {
	_ = ctx
	//simlint:allow hotbox fixture: demonstrates a suppressed boxing call
	return rdd.HashAny(k)
}

// badBoxLoop explicitly boxes each record inside the loop: one heap
// allocation per iteration with no measurement call in sight.
func badBoxLoop(ctx *executor.TaskContext, vals []int64) []any {
	_ = ctx
	out := make([]any, 0, len(vals))
	for _, v := range vals {
		out = append(out, any(v))
	}
	return out
}

// badCopyLoop copies one element per iteration; a bulk append moves the
// whole column in one step.
func badCopyLoop(ctx *executor.TaskContext, src []int64) []int64 {
	_ = ctx
	var dst []int64
	for i := range src {
		dst = append(dst, src[i])
	}
	return dst
}

// goodBulkCopy is the sanctioned bulk form.
func goodBulkCopy(ctx *executor.TaskContext, src []int64) []int64 {
	_ = ctx
	var dst []int64
	dst = append(dst, src...)
	return dst
}

// goodFilterLoop appends conditionally — not a pure element copy, so no
// bulk form exists and it stays clean.
func goodFilterLoop(ctx *executor.TaskContext, src []int64) []int64 {
	_ = ctx
	var dst []int64
	for i := range src {
		if src[i] > 0 {
			dst = append(dst, src[i])
		}
	}
	return dst
}

// goodMapValues collects map values — maps have no bulk copy, so the
// single-statement loop is fine (sorted afterwards for determinism, with
// the generic sort).
func goodMapValues(ctx *executor.TaskContext, m map[int]int64) []int64 {
	_ = ctx
	var dst []int64
	for k := range m {
		dst = append(dst, m[k])
	}
	slices.Sort(dst)
	return dst
}

// badReflectSort sorts a partition through package sort's reflection-
// based entry points: a reflect-built swapper per call.
func badReflectSort(ctx *executor.TaskContext, recs []rdd.Pair[string, int64]) {
	_ = ctx
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	sort.Slice(recs, func(i, j int) bool { return recs[i].Val < recs[j].Val })
}

// driverReflectSort is never reached from a TaskContext function; the
// driver sorts a handful of results once per job.
func driverReflectSort(vals []int64) {
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
}

// driverBoxLoop never sees a TaskContext: driver-side code may box in
// loops freely (it runs once per job, not per record).
func driverBoxLoop(vals []int64) []any {
	out := make([]any, 0, len(vals))
	for _, v := range vals {
		out = append(out, any(v))
	}
	return out
}

// planner is how the fixture's tick reaches its policy, the way the
// engine reaches tiering.Policy.
type planner interface {
	Plan(cands []heat.Sample) []heat.Sample
}

// epochTick records a history epoch, which makes it a tiering tick: the
// second entry point of the reflect-sort table. Sorting the snapshot by
// id is what the id-ordered trackers made unnecessary.
func epochTick(h *heat.History, p planner, snap []heat.Sample) {
	sort.Slice(snap, func(i, j int) bool { return snap[i].ID.Less(snap[j].ID) })
	h.Push(snap)
	p.Plan(snap)
}

// reflectPolicy is reached from epochTick only through the planner
// interface; the bridge taints it all the same.
type reflectPolicy struct{}

func (reflectPolicy) Plan(cands []heat.Sample) []heat.Sample {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Heat < cands[j].Heat })
	return cands
}

// genericPolicy sorts its candidates the way the real policies do.
type genericPolicy struct{}

func (genericPolicy) Plan(cands []heat.Sample) []heat.Sample {
	slices.SortStableFunc(cands, func(a, b heat.Sample) int {
		switch {
		case a.Heat < b.Heat:
			return -1
		case b.Heat < a.Heat:
			return 1
		}
		return 0
	})
	return cands
}
