package executor

import (
	"fmt"
	"math/rand"

	"repro/internal/blockmgr"
	"repro/internal/memsim"
	"repro/internal/rng"
	"repro/internal/shuffle"
)

// Placement routes the engine's memory traffic categories to tiers. The
// paper binds everything to one tier (numactl membind); the placement
// extension explores the §IV-G direction of "the optimal memory tier per
// access type": executor heap (operator working set), shuffle storage and
// the RDD cache can live on different tiers.
type Placement struct {
	// Heap backs operator working sets: sources, hash aggregations,
	// broadcasts, result serialization.
	Heap memsim.TierID
	// Shuffle backs map-output segments (write and fetch).
	Shuffle memsim.TierID
	// Cache backs persisted RDD partitions.
	Cache memsim.TierID

	// HeapSpill, with HeapSpillFrac > 0, splits heap traffic between two
	// tiers the way numactl --interleave (or Optane Memory Mode's
	// DRAM-as-cache, to first order) does: HeapSpillFrac of every heap
	// burst is served by HeapSpill, the rest by Heap. Sweeping the
	// fraction traces the classic "how much DRAM do we actually need"
	// curve between the all-DRAM and all-NVM endpoints.
	HeapSpill     memsim.TierID
	HeapSpillFrac float64
}

// UniformPlacement is the paper's membind: every category on one tier.
func UniformPlacement(tier memsim.TierID) Placement {
	return Placement{Heap: tier, Shuffle: tier, Cache: tier}
}

// Validate rejects out-of-range tiers and spill fractions.
func (p Placement) Validate() error {
	for _, tier := range []memsim.TierID{p.Heap, p.Shuffle, p.Cache} {
		if !tier.Valid() {
			return errInvalidTier(tier)
		}
	}
	if p.HeapSpillFrac < 0 || p.HeapSpillFrac > 1 {
		return fmt.Errorf("executor: heap spill fraction %v out of [0,1]", p.HeapSpillFrac)
	}
	if p.HeapSpillFrac > 0 && !p.HeapSpill.Valid() {
		return errInvalidTier(p.HeapSpill)
	}
	return nil
}

func errInvalidTier(t memsim.TierID) error {
	return &placementError{tier: t}
}

type placementError struct{ tier memsim.TierID }

func (e *placementError) Error() string {
	return "executor: placement references invalid tier " + e.tier.String()
}

// blockOp is one staged block-manager operation: a Put of computed data,
// or the hit/miss outcome of a Get, replayed against the live manager at
// commit time so LRU order and cache stats advance in partition order.
type blockOp struct {
	id    blockmgr.BlockID
	data  any
	bytes int64
	items int
	kind  blockOpKind
}

type blockOpKind int

const (
	blockPut blockOpKind = iota
	blockHit
	blockMiss
)

// shufflePuts stage whole chunk sets (one per map task); see
// PutShuffleChunks.

// TaskContext is handed to every task's computation. It carries the
// executor placement, the charging API that turns real data movement into
// a cost Profile (and tier counters), and handles to the storage layers.
//
// During phase-1 compute the context runs on a worker goroutine, so every
// side effect is staged task-locally: tier counter deltas, block-manager
// operations and shuffle segments accumulate in the context and are
// published by Commit, which the scheduler calls once per task in
// partition order after the stage's workers join. Reads go through a
// snapshot view of stage-start state (blockmgr.Peek, committed upstream
// shuffles) plus the task's own staged writes.
type TaskContext struct {
	// ExecID is the executor this task is assigned to.
	ExecID int
	// Partition is the task's partition index within its stage.
	Partition int
	// Heap, ShuffleTier and CacheTier are the memory tiers serving each
	// traffic category per the application's placement.
	Heap        *memsim.Tier
	ShuffleTier *memsim.Tier
	CacheTier   *memsim.Tier
	// HeapSpill, with HeapSpillFrac > 0, receives that fraction of every
	// heap burst (interleaved allocation).
	HeapSpill     *memsim.Tier
	HeapSpillFrac float64
	// Sys resolves tier ids to tiers for residency-aware cache charging
	// (set by Pool.ConfigureContext). With a nil Sys every cache burst
	// falls back to CacheTier, the static pre-tiering behaviour.
	Sys *memsim.System
	// Cost is the cost model in effect.
	Cost CostModel
	// Blocks is the executor-local block manager (RDD cache).
	Blocks *blockmgr.Manager
	// Shuffle is the application-wide shuffle store.
	Shuffle *shuffle.Store
	// Chunks is the block manager's residency ledger for shuffle chunk
	// sets (set by Pool.ConfigureContext); with a nil handle chunk reads
	// resolve to the static shuffle tier.
	Chunks *blockmgr.ChunkStore
	// Rand is a task-seeded PRNG for workloads that sample.
	Rand *rand.Rand
	// src backs Rand; embedded, and it allocates its state on the first
	// draw, so a task that never draws allocates no source at all.
	src rng.Source

	profile Profile
	seen    map[uint64]struct{}

	// Staged side effects, published by Commit in partition order.
	tierDeltas  [memsim.NumTiers]memsim.Counters
	tierTouched [memsim.NumTiers]*memsim.Tier
	copyDeltas  [memsim.NumTiers]memsim.CopyCounters
	copyTouched [memsim.NumTiers]*memsim.Tier
	blockOps    []blockOp
	overlay     map[blockmgr.BlockID]blockOp // this task's own staged puts
	shufflePuts []*shuffle.ChunkSet
	committed   bool
}

// NewPlacedTaskContext builds a context with per-category tiers.
func NewPlacedTaskContext(execID, partition int, heap, shufTier, cacheTier *memsim.Tier,
	cost CostModel, blocks *blockmgr.Manager, shuf *shuffle.Store, seed int64) *TaskContext {
	c := &TaskContext{
		ExecID:      execID,
		Partition:   partition,
		Heap:        heap,
		ShuffleTier: shufTier,
		CacheTier:   cacheTier,
		Cost:        cost,
		Blocks:      blocks,
		Shuffle:     shuf,
	}
	c.src.Seed(seed*1_000_003 + int64(partition))
	c.Rand = rand.New(&c.src)
	return c
}

// Once reports whether this is the first call with the given key in this
// task, letting callers charge per-task costs (broadcast fetches) exactly
// once however many times a value is touched.
func (c *TaskContext) Once(key uint64) bool {
	if c.seen == nil {
		c.seen = make(map[uint64]struct{})
	}
	if _, ok := c.seen[key]; ok {
		return false
	}
	c.seen[key] = struct{}{}
	return true
}

// Profile returns the accumulated cost footprint.
func (c *TaskContext) Profile() Profile { return c.profile }

// CPU charges pure compute time in nanoseconds.
func (c *TaskContext) CPU(ns float64) {
	if ns > 0 {
		c.profile.CPUNS += ns
	}
}

// CPUPerRecord charges n records at the given per-record cost.
func (c *TaskContext) CPUPerRecord(n int, perRecordNS float64) {
	if n > 0 && perRecordNS > 0 {
		c.profile.CPUNS += float64(n) * perRecordNS
	}
}

// charge computes a burst's counter delta (pure: no shared tier state is
// touched) and stages it task-locally for Commit.
func (c *TaskContext) charge(t *memsim.Tier, op memsim.Op, pattern memsim.Pattern, bytes, items int64) int64 {
	delta, lines := t.BurstDelta(op, pattern, bytes, items)
	c.tierDeltas[t.Spec.ID].Add(delta)
	c.tierTouched[t.Spec.ID] = t
	return lines
}

// seqOn charges a sequential burst on an arbitrary tier.
func (c *TaskContext) seqOn(t *memsim.Tier, op memsim.Op, bytes int64) {
	if bytes <= 0 {
		return
	}
	lines := c.charge(t, op, memsim.Sequential, bytes, 1)
	tc := &c.profile.Tiers[t.Spec.ID]
	tc.StallLines[op] += float64(lines) * memsim.Sequential.LatencyExposure()
	tc.SeqBytes[op] += lines * t.Spec.Kind.LineSize()
}

// randOn charges a scattered burst on an arbitrary tier, applying the
// cost model's ObjectChurn factor (JVM object-graph traffic rides along
// with each logical record access).
func (c *TaskContext) randOn(t *memsim.Tier, op memsim.Op, items int, bytes int64) {
	if items <= 0 || bytes <= 0 {
		return
	}
	if churn := c.Cost.ObjectChurn; churn > 1 {
		items *= churn
		bytes *= int64(churn)
	}
	lines := c.charge(t, op, memsim.Random, bytes, int64(items))
	tc := &c.profile.Tiers[t.Spec.ID]
	tc.StallLines[op] += float64(lines) * memsim.Random.LatencyExposure()
	tc.RandBytes[op] += lines * t.Spec.Kind.LineSize()
}

// MemSeq charges a sequential (streaming) burst on the heap tier (split
// with the spill tier when heap interleaving is configured): counters are
// updated on the tier, a prefetch-hidden fraction of line latency goes to
// the stall budget, and the media bytes go to the bandwidth budget.
func (c *TaskContext) MemSeq(op memsim.Op, bytes int64) {
	if c.HeapSpillFrac > 0 && c.HeapSpill != nil {
		spill := int64(float64(bytes) * c.HeapSpillFrac)
		c.seqOn(c.HeapSpill, op, spill)
		c.seqOn(c.Heap, op, bytes-spill)
		return
	}
	c.seqOn(c.Heap, op, bytes)
}

// MemRand charges `items` scattered accesses moving `bytes` in total on
// the heap tier (split with the spill tier when heap interleaving is
// configured). Every item pays full loaded line latency; small items
// amplify media traffic.
func (c *TaskContext) MemRand(op memsim.Op, items int, bytes int64) {
	if c.HeapSpillFrac > 0 && c.HeapSpill != nil {
		spillItems := int(float64(items) * c.HeapSpillFrac)
		spillBytes := int64(float64(bytes) * c.HeapSpillFrac)
		c.randOn(c.HeapSpill, op, spillItems, spillBytes)
		c.randOn(c.Heap, op, items-spillItems, bytes-spillBytes)
		return
	}
	c.randOn(c.Heap, op, items, bytes)
}

// ShuffleSeq charges a streaming burst against the shuffle tier (segment
// writes and fetch streams).
func (c *TaskContext) ShuffleSeq(op memsim.Op, bytes int64) { c.seqOn(c.ShuffleTier, op, bytes) }

// ShuffleRand charges scattered accesses against the shuffle tier (bucket
// headers, remote fetch metadata).
func (c *TaskContext) ShuffleRand(op memsim.Op, items int, bytes int64) {
	c.randOn(c.ShuffleTier, op, items, bytes)
}

// TierSeq charges a streaming burst against an explicit tier. It is the
// staged charge primitive behind residency-aware cache accounting and the
// tiering engine's migration traffic: like every other charge it
// accumulates a BurstDelta task-locally and publishes at Commit.
func (c *TaskContext) TierSeq(t *memsim.Tier, op memsim.Op, bytes int64) { c.seqOn(t, op, bytes) }

// CacheBlockSeq charges a streaming cache burst to the tier the block is
// resident on: the task's own staged puts and blocks about to be stored
// charge the manager's landing tier, previously committed blocks charge
// wherever the tiering engine last placed them. During a stage residency
// is frozen (migrations happen only at epoch ticks between stages), so
// the resolved tier is identical for any phase-1 worker count. Without a
// system handle (standalone contexts) it falls back to the static cache
// tier.
func (c *TaskContext) CacheBlockSeq(id blockmgr.BlockID, op memsim.Op, bytes int64) {
	c.seqOn(c.cacheTierFor(id), op, bytes)
}

// cacheTierFor resolves the tier a cache burst for the given block is
// charged to (see CacheBlockSeq).
func (c *TaskContext) cacheTierFor(id blockmgr.BlockID) *memsim.Tier {
	if c.Sys == nil || c.Blocks == nil {
		return c.CacheTier
	}
	if _, ok := c.overlay[id]; ok {
		return c.Sys.Tier(c.Blocks.PlannedLandingTier())
	}
	if tid, ok := c.Blocks.TierOf(id); ok {
		return c.Sys.Tier(tid)
	}
	return c.Sys.Tier(c.Blocks.PlannedLandingTier())
}

// Disk charges a blocking HDFS disk transfer of the given size — a stall
// on a memory-tier-independent resource, so it lands in the CPU budget.
func (c *TaskContext) Disk(bytes int64) {
	if bytes <= 0 {
		return
	}
	bw := c.Cost.DiskBWBytes
	if bw <= 0 {
		bw = 2e9
	}
	c.CPU(float64(bytes) / bw * 1e9)
}

// GetBlock reads a cached block through the task's staging layer: the
// task's own staged puts are consulted first (a task that just cached a
// partition sees it immediately, exactly as under sequential execution),
// then a read-only snapshot of the block manager as of stage start. The
// hit/miss outcome is staged and replayed against the live manager at
// commit time so LRU order and cache stats advance in partition order.
func (c *TaskContext) GetBlock(id blockmgr.BlockID) (data any, bytes int64, items int, ok bool) {
	if op, found := c.overlay[id]; found {
		c.blockOps = append(c.blockOps, blockOp{id: id, kind: blockHit})
		return op.data, op.bytes, op.items, true
	}
	if c.Blocks == nil {
		return nil, 0, 0, false
	}
	data, bytes, items, ok = c.Blocks.Peek(id)
	if ok {
		c.blockOps = append(c.blockOps, blockOp{id: id, kind: blockHit})
	} else {
		c.blockOps = append(c.blockOps, blockOp{id: id, kind: blockMiss})
	}
	return data, bytes, items, ok
}

// PutBlock stages a block store; the task's later GetBlock calls see it,
// other tasks only after Commit.
func (c *TaskContext) PutBlock(id blockmgr.BlockID, data any, bytes int64, items int) {
	op := blockOp{id: id, data: data, bytes: bytes, items: items, kind: blockPut}
	c.blockOps = append(c.blockOps, op)
	if c.overlay == nil {
		c.overlay = make(map[blockmgr.BlockID]blockOp)
	}
	c.overlay[id] = op
}

// PutShuffleChunks stages one map task's chunk set, stamping it with the
// writing executor. Chunk sets become visible to reduce tasks only after
// Commit, which runs before any downstream stage starts (stages are
// barriers), so readers always see fully committed shuffles.
func (c *TaskContext) PutShuffleChunks(cs *shuffle.ChunkSet) {
	cs.ExecID = c.ExecID
	c.shufflePuts = append(c.shufflePuts, cs)
}

// Commit publishes the task's staged side effects — tier counter deltas,
// block-manager operations, shuffle segments — in the order they were
// recorded. The scheduler calls it once per task in partition order after
// the stage's compute phase joins; committing twice is a scheduling bug
// and panics.
func (c *TaskContext) Commit() {
	if c.committed {
		panic(fmt.Sprintf("executor: task %d context committed twice", c.Partition))
	}
	c.committed = true
	for id, t := range c.tierTouched {
		if t != nil {
			t.MergeCounters(c.tierDeltas[id])
		}
	}
	for id, t := range c.copyTouched {
		if t != nil {
			t.MergeCopies(c.copyDeltas[id])
		}
	}
	if c.Blocks != nil {
		for _, op := range c.blockOps {
			switch op.kind {
			case blockPut:
				c.Blocks.Put(op.id, op.data, op.bytes, op.items)
			case blockHit:
				c.Blocks.ReplayHit(op.id)
			case blockMiss:
				c.Blocks.ReplayMiss()
			}
		}
	}
	if c.Shuffle != nil {
		for _, cs := range c.shufflePuts {
			c.Shuffle.PutChunks(cs)
		}
	}
}

// FetchShuffleChunks returns the chunk sets feeding one reduce partition,
// ordered by map partition. A map output lost to an executor crash makes
// the fetch panic with the typed *shuffle.SegmentLostError — the task-level
// FetchFailed that the scheduler's recovery loop converts into a parent
// map-stage resubmission. Tasks must fetch through this method (not the
// store directly) so lost outputs are never silently read as empty.
func (c *TaskContext) FetchShuffleChunks(shuffleID, reduce int) []*shuffle.ChunkSet {
	sets, err := c.Shuffle.Inputs(shuffleID, reduce)
	if err != nil {
		panic(err.(*shuffle.SegmentLostError))
	}
	return sets
}

// ReadShuffleChunk charges the cost of opening and draining one reduce
// partition's chunk from one map output. Remote chunks (written by
// another executor) pay the co-operation overhead: extra CPU, a metadata
// round trip and the full data transfer as sequential reads from the
// shuffle tier. Local chunks pay the same open/drain charges the
// pre-chunk row path did — the frozen virtual ledger — while the copy
// ledger records their bytes as served by reference: the copy a
// Sparkle-style shared pool avoids. An empty chunk (the map task routed
// nothing to this reduce partition) charges nothing, exactly like the
// absent segment it replaces.
func (c *TaskContext) ReadShuffleChunk(cs *shuffle.ChunkSet, reduce int) {
	if cs == nil || cs.Items[reduce] == 0 {
		return
	}
	bytes := cs.Bytes[reduce]
	c.CPU(c.Cost.SegmentOpenNS)
	if cs.ExecID != c.ExecID {
		c.CPU(c.Cost.RemoteSegmentNS)
		c.ShuffleRand(memsim.Read, 1, c.Cost.SegmentMetaBytes)
	}
	if bytes > 0 {
		c.ShuffleSeq(memsim.Read, bytes)
		c.CPU(float64(bytes) * c.Cost.SerDePerB)
	}
	t := c.chunkTierFor(cs)
	d := &c.copyDeltas[t.Spec.ID]
	if cs.ExecID == c.ExecID {
		d.LocalChunks++
		d.LocalBytes += bytes
	} else {
		d.RemoteChunks++
		d.RemoteBytes += bytes
	}
	c.copyTouched[t.Spec.ID] = t
}

// chunkTierFor resolves the tier a chunk set's page is resident on via
// the block manager's chunk ledger; standalone contexts without a ledger
// fall back to the static shuffle tier. Residency is frozen during a
// stage (chunk sets are registered by partition-ordered commits between
// stages), so the resolved tier is identical for any phase-1 worker
// count.
func (c *TaskContext) chunkTierFor(cs *shuffle.ChunkSet) *memsim.Tier {
	if c.Sys != nil && c.Chunks != nil {
		if tid, ok := c.Chunks.TierOf(cs.Shuffle, cs.MapPart); ok {
			return c.Sys.Tier(tid)
		}
	}
	return c.ShuffleTier
}
