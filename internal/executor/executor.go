package executor

import (
	"fmt"

	"repro/internal/blockmgr"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/shuffle"
)

// Executor is one Spark computing unit: a set of cores pinned to a socket
// and a memory binding, with its own block manager.
type Executor struct {
	ID     int
	Cores  int
	Blocks *blockmgr.Manager
}

// NewExecutor builds an executor with the given core count and binding.
// cacheCapacity bounds the executor's block manager (<=0 = unbounded).
func NewExecutor(id, cores int, binding numa.Binding, cacheCapacity int64) *Executor {
	if cores <= 0 {
		panic(fmt.Sprintf("executor: executor %d with %d cores", id, cores))
	}
	if err := binding.Validate(); err != nil {
		panic(err)
	}
	return &Executor{ID: id, Cores: cores, Blocks: blockmgr.New(cacheCapacity)}
}

// Pool is the set of executors of one application, sharing one memory
// system and one placement. Executor slots are stable: a crashed
// executor is marked dead (and optionally replaced in place), so slot
// indices keep identifying queues and shuffle outputs across failures.
type Pool struct {
	Executors []*Executor
	sys       *memsim.System
	placement Placement
	// chunks is the block manager's residency ledger for shuffle chunk
	// sets; new chunk sets land on the placement's shuffle tier.
	chunks *blockmgr.ChunkStore

	// binding and cacheCapacity are kept so Replace can build an
	// identically configured executor in a dead slot.
	binding       numa.Binding
	cacheCapacity int64
	// quota is the owning tenant's memory quota, kept so Replace can
	// re-attach it to a fresh block manager; nil when unmetered.
	quota     *blockmgr.TenantQuota
	dead      []bool
	deadCount int
	// des is SimulateStage's scratch, reused from stage to stage.
	des stageSim
}

// NewPool builds n identical executors of coresEach cores, bound to
// binding, allocating from the binding's tier on sys.
func NewPool(n, coresEach int, binding numa.Binding, sys *memsim.System, cacheCapacity int64) *Pool {
	return NewPlacedPool(n, coresEach, binding, sys, UniformPlacement(binding.Mem), cacheCapacity)
}

// NewPlacedPool builds a pool with an explicit per-category placement.
func NewPlacedPool(n, coresEach int, binding numa.Binding, sys *memsim.System,
	placement Placement, cacheCapacity int64) *Pool {
	if n <= 0 {
		panic(fmt.Sprintf("executor: pool of %d executors", n))
	}
	if err := placement.Validate(); err != nil {
		panic(err)
	}
	p := &Pool{sys: sys, placement: placement, binding: binding, cacheCapacity: cacheCapacity,
		chunks: blockmgr.NewChunkStore(placement.Shuffle)}
	for i := 0; i < n; i++ {
		ex := NewExecutor(i, coresEach, binding, cacheCapacity)
		// Blocks land on the placement's cache tier; the dynamic tiering
		// engine may rebind the landing tier when it attaches.
		ex.Blocks.SetLandingTier(placement.Cache)
		p.Executors = append(p.Executors, ex)
	}
	p.dead = make([]bool, n)
	return p
}

// System returns the memory system the pool allocates from.
func (p *Pool) System() *memsim.System { return p.sys }

// Tier returns the heap tier — the paper's single membind target.
func (p *Pool) Tier() *memsim.Tier { return p.sys.Tier(p.placement.Heap) }

// ShuffleTier returns the tier backing shuffle segments.
func (p *Pool) ShuffleTier() *memsim.Tier { return p.sys.Tier(p.placement.Shuffle) }

// CacheTier returns the tier backing persisted RDD partitions.
func (p *Pool) CacheTier() *memsim.Tier { return p.sys.Tier(p.placement.Cache) }

// ChunkStore returns the pool's shuffle-chunk residency ledger.
func (p *Pool) ChunkStore() *blockmgr.ChunkStore { return p.chunks }

// AttachQuota installs the owning tenant's memory quota on every
// executor's block manager (and remembers it for Replace). Driver wiring
// only, before jobs run.
func (p *Pool) AttachQuota(q *blockmgr.TenantQuota) {
	p.quota = q
	for _, ex := range p.Executors {
		ex.Blocks.SetQuota(q)
	}
}

// Quota returns the pool's tenant quota, nil when unmetered.
func (p *Pool) Quota() *blockmgr.TenantQuota { return p.quota }

// ConfigureContext applies the pool's heap-interleave settings to a task
// context built over its tiers and hands it the memory system so cache
// bursts can be charged to each block's resident tier — and the chunk
// ledger so chunk reads resolve to the tier the chunk set landed on.
func (p *Pool) ConfigureContext(ctx *TaskContext) *TaskContext {
	if p.placement.HeapSpillFrac > 0 {
		ctx.HeapSpill = p.sys.Tier(p.placement.HeapSpill)
		ctx.HeapSpillFrac = p.placement.HeapSpillFrac
	}
	ctx.Sys = p.sys
	ctx.Chunks = p.chunks
	return ctx
}

// Size returns the number of executors.
func (p *Pool) Size() int { return len(p.Executors) }

// Alive reports whether an executor slot holds a live executor.
func (p *Pool) Alive(id int) bool {
	return id >= 0 && id < len(p.Executors) && !p.dead[id]
}

// AliveCount returns the number of live executors.
func (p *Pool) AliveCount() int { return len(p.Executors) - p.deadCount }

// MarkDead removes an executor from scheduling (a crash with no
// replacement). The slot stays in Executors so indices remain stable;
// AssignPartition skips it. Idempotent.
func (p *Pool) MarkDead(id int) {
	if !p.Alive(id) {
		return
	}
	p.dead[id] = true
	p.deadCount++
}

// Replace installs a fresh executor — empty block manager, same cores
// and binding — in the given slot and revives it, modeling a standalone
// supervisor restarting a crashed worker. The caller accounts the
// startup cost (see StartupTask).
func (p *Pool) Replace(id int) *Executor {
	old := p.Executors[id]
	fresh := NewExecutor(id, old.Cores, p.binding, p.cacheCapacity)
	// The fresh block manager inherits the crashed one's landing tier and
	// tenant quota (the tiering engine re-attaches its observer
	// separately).
	fresh.Blocks.SetLandingTier(old.Blocks.LandingTier())
	fresh.Blocks.SetQuota(p.quota)
	p.Executors[id] = fresh
	if p.dead[id] {
		p.dead[id] = false
		p.deadCount--
	}
	return fresh
}

// AssignPartition deterministically maps a partition index to an executor,
// used identically during real computation (for cache placement) and
// during the timing simulation (for core contention). Dead slots are
// skipped: with all executors alive the map is part % n, and after a
// crash partitions spread round-robin over the survivors.
func (p *Pool) AssignPartition(part int) *Executor {
	if p.deadCount == 0 {
		return p.Executors[part%len(p.Executors)]
	}
	alive := p.AliveCount()
	if alive == 0 {
		panic("executor: AssignPartition with no live executors")
	}
	nth := part % alive
	for id, ex := range p.Executors {
		if p.dead[id] {
			continue
		}
		if nth == 0 {
			return ex
		}
		nth--
	}
	panic("executor: unreachable")
}

// StartupTask builds the simulated startup work of one executor — the
// fixed JVM spin-up CPU plus the sequential heap-initialization write to
// its bound tier — committed and ready for SimulateStage. It is used for
// the initial executor launch stage and again when a crashed executor is
// replaced mid-run.
func StartupTask(p *Pool, ex *Executor, cost CostModel, store *shuffle.Store, seed int64) SimTask {
	ctx := p.ConfigureContext(NewPlacedTaskContext(ex.ID, ex.ID,
		p.Tier(), p.ShuffleTier(), p.CacheTier(), cost, ex.Blocks, store, seed))
	ctx.CPU(cost.ExecStartupNS)
	ctx.MemSeq(memsim.Write, cost.ExecStartupBytes)
	ctx.Commit() // publish the staged startup counters
	return SimTask{Profile: ctx.Profile(), ExecID: ex.ID}
}
