// Package rdd implements a Spark-like resilient distributed dataset layer:
// lazily evaluated, typed datasets with narrow (pipelined) and wide
// (shuffle) dependencies. Real records flow through every operator, so the
// memory traffic charged to the simulated tiers is a product of actual
// data movement, not hand-tuned per-application constants.
//
// Following Spark's execution model, narrow transformation chains are
// pipelined: intermediate records live in registers/cache and charge only
// CPU. Memory traffic is charged at materialization points — source scans,
// shuffle writes/reads, cache hits/misses and action results — which is
// where a real Spark job touches DRAM/NVM.
package rdd

import (
	"fmt"

	"repro/internal/executor"
)

// ResultFunc computes a job's result for one partition of the final RDD.
type ResultFunc func(ctx *executor.TaskContext, part int) any

// Driver is the application facade the RDD layer runs against;
// cluster.App implements it.
type Driver interface {
	// NextRDDID allocates a unique dataset id.
	NextRDDID() int
	// NextShuffleID allocates a unique shuffle id.
	NextShuffleID() int
	// DefaultParallelism is the default partition count for shuffles.
	DefaultParallelism() int
	// RunJob executes fn over every partition of final and returns the
	// per-partition results in partition order.
	RunJob(final *Base, fn ResultFunc) []any
	// Seed is the application's deterministic random seed.
	Seed() int64
	// GenStore is the store generated sources read their partitions
	// from and derived pages are kept in (see Generator.Source and
	// Derivation.Bind); never nil. It is host-side state: nothing a run
	// computes depends on it.
	GenStore() *GenStore
}

// ShuffleDep is a wide dependency: the parent is hash/range partitioned
// into the child's partitions by map tasks before the child can compute.
type ShuffleDep struct {
	// P is the upstream dataset.
	P         *Base
	ShuffleID int
	// WriteMap computes parent partition mapPart and writes its buckets
	// to the shuffle store, charging costs on ctx.
	WriteMap func(ctx *executor.TaskContext, mapPart int)
}

// Base is the untyped skeleton of a dataset: what the DAG scheduler sees.
// A dataset is pipelined onto one parent, fed by wide dependencies, or a
// source with neither.
type Base struct {
	ID       int
	Name     string
	NumParts int
	// Narrow is the parent of a pipelined one-to-one dependency (map,
	// filter, ...).
	Narrow *Base
	// Shuffles are the wide dependencies feeding the dataset.
	Shuffles []*ShuffleDep
	driver   Driver
}

// String renders like "RDD[12 sortByKey, 80 parts]".
func (b *Base) String() string {
	return fmt.Sprintf("RDD[%d %s, %d parts]", b.ID, b.Name, b.NumParts)
}

// RDD is a typed dataset. Transformations build new RDDs lazily; actions
// submit jobs through the Driver.
type RDD[T any] struct {
	base    *Base
	compute func(ctx *executor.TaskContext, part int) []T
	cached  bool
}

// newBase allocates a dataset id and the lineage node the scheduler sees.
// A fused operator calls it alone for the intermediate datasets of the
// composition it replaces, so ids, names and stage names stay put.
func newBase(d Driver, name string, parts int, narrow *Base, shuffles []*ShuffleDep) *Base {
	if parts <= 0 {
		panic(fmt.Sprintf("rdd: %s with %d partitions", name, parts))
	}
	return &Base{ID: d.NextRDDID(), Name: name, NumParts: parts, Narrow: narrow, Shuffles: shuffles, driver: d}
}

// newRDD wires a typed dataset onto a fresh Base.
func newRDD[T any](d Driver, name string, parts int, narrow *Base, shuffles []*ShuffleDep,
	compute func(ctx *executor.TaskContext, part int) []T) *RDD[T] {
	return &RDD[T]{base: newBase(d, name, parts, narrow, shuffles), compute: compute}
}

// Compute materializes one partition in the context of a task. It is
// invoked by the scheduler (through closures) and by downstream RDDs.
func (r *RDD[T]) Compute(ctx *executor.TaskContext, part int) []T {
	if part < 0 || part >= r.base.NumParts {
		panic(fmt.Sprintf("rdd: partition %d out of range for %s", part, r.base))
	}
	return r.compute(ctx, part)
}
