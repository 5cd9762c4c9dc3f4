// Package blockmgr implements a Spark-style executor-local block manager:
// the storage layer behind RDD persist/cache. Blocks hold materialized
// partitions; capacity is bounded and eviction is LRU, mirroring
// Spark's MEMORY_ONLY storage level where evicted partitions are simply
// recomputed from lineage.
//
// The block manager is a pure data structure: memory-tier charging for
// block reads/writes is done by the caller (the task context), which knows
// where each block is resident. Residency is a per-block label — every
// block lives in exactly one memory tier, initially the manager's landing
// tier — that the dynamic tiering engine (internal/tiering) rebinds when
// it migrates a block between DRAM and DCPM. Residency never affects LRU
// order, capacity accounting or hit/miss statistics; it only tells the
// charging layer which tier's counters a block access belongs to.
package blockmgr

import (
	"container/list"
	"fmt"
	"slices"

	"repro/internal/memsim"
)

// BlockID names a materialized partition of an RDD.
type BlockID struct {
	RDD       int
	Partition int
}

// String formats like Spark's "rdd_12_3".
func (id BlockID) String() string { return fmt.Sprintf("rdd_%d_%d", id.RDD, id.Partition) }

// Less orders block ids by (RDD, Partition), the canonical deterministic
// order used whenever block sets collected from map iteration are sorted.
func (id BlockID) Less(other BlockID) bool {
	if id.RDD != other.RDD {
		return id.RDD < other.RDD
	}
	return id.Partition < other.Partition
}

// Observer receives block lifecycle events — the hook the tiering hotness
// ledger hangs off. All callbacks fire on the driver goroutine: accesses
// and puts are replayed at commit time in partition order, evictions
// happen inside commit-time puts, and drops happen in the scheduler's
// crash path. A manager with no observer behaves identically to one that
// never had the hook (LRU order, stats and eviction choices are
// observer-independent by construction).
type Observer interface {
	// BlockAccessed fires on every counted cache hit (Get, or a staged
	// hit replayed by ReplayHit while the block is still resident).
	BlockAccessed(id BlockID, bytes int64)
	// BlockPut fires after a block is stored (including overwrites).
	BlockPut(id BlockID, bytes int64)
	// BlockEvicted fires when LRU capacity pressure evicts a block.
	BlockEvicted(id BlockID, bytes int64)
	// BlockDropped fires when a block is removed outside the LRU path:
	// explicit Remove, or RemoveAll on an executor crash.
	BlockDropped(id BlockID, bytes int64)
}

type entry struct {
	id    BlockID
	data  any
	bytes int64
	items int
	tier  memsim.TierID
	elem  *list.Element
}

// BlockInfo is a read-only view of one resident block, for policy
// enumeration.
type BlockInfo struct {
	ID    BlockID
	Bytes int64
	Items int
	Tier  memsim.TierID
}

// Manager is one executor's block store.
type Manager struct {
	capacity int64
	used     int64
	blocks   map[BlockID]*entry
	// order holds the same entries as blocks, sorted by id: Put and
	// removeEntry keep it sorted, so enumeration never sorts.
	order []*entry
	lru   *list.List // front = most recently used

	// landing is the tier newly stored blocks are resident on; tierUsed
	// tracks resident bytes per tier (summing to used at all times).
	landing  memsim.TierID
	tierUsed [memsim.NumTiers]int64
	obs      Observer
	// quota, when set, meters placements against the owning tenant's
	// two-tier budget: new blocks land per TenantQuota.Place (graceful
	// spill to the slow tier), removals release their bytes, and
	// migrations are admitted through the quota's Move. Nil disables
	// metering entirely.
	quota *TenantQuota

	hits      int64
	misses    int64
	evictions int64
}

// New creates a manager with the given capacity in bytes. capacity <= 0
// means unbounded. Blocks land on Tier 0 until SetLandingTier rebinds the
// landing tier (the executor pool binds it to the placement's cache tier).
func New(capacity int64) *Manager {
	return &Manager{
		capacity: capacity,
		blocks:   make(map[BlockID]*entry),
		lru:      list.New(),
	}
}

// Stats returns cache hits, misses and evictions since creation.
func (m *Manager) Stats() (hits, misses, evictions int64) {
	return m.hits, m.misses, m.evictions
}

// SetObserver installs the lifecycle observer (nil uninstalls).
func (m *Manager) SetObserver(o Observer) { m.obs = o }

// SetLandingTier rebinds the tier newly stored blocks are resident on.
// Existing blocks keep their residency.
func (m *Manager) SetLandingTier(t memsim.TierID) {
	if !t.Valid() {
		panic(fmt.Sprintf("blockmgr: invalid landing tier %d", t))
	}
	m.landing = t
}

// LandingTier returns the configured tier newly stored blocks land on
// (before quota-driven spilling).
func (m *Manager) LandingTier() memsim.TierID { return m.landing }

// SetQuota installs the owning tenant's memory quota (nil uninstalls).
// Driver wiring only — the executor pool attaches it at construction and
// re-attaches it when a crashed executor is replaced.
func (m *Manager) SetQuota(q *TenantQuota) { m.quota = q }

// Quota returns the installed tenant quota, nil when unmetered.
func (m *Manager) Quota() *TenantQuota { return m.quota }

// PlannedLandingTier is the tier a new block would be resident on right
// now: the configured landing tier, unless a tenant quota is installed
// and its fast budget is exhausted, in which case new blocks degrade to
// the quota's slow tier. The charge path resolves new-block bursts
// through this; during a stage quota usage is frozen (all mutations are
// commit-time, on the driver goroutine), so phase-1 workers read a stable
// answer regardless of worker count.
func (m *Manager) PlannedLandingTier() memsim.TierID {
	if m.quota != nil {
		return m.quota.PlannedLanding()
	}
	return m.landing
}

// TierOf returns the tier a block is resident on.
func (m *Manager) TierOf(id BlockID) (memsim.TierID, bool) {
	e, ok := m.blocks[id]
	if !ok {
		return 0, false
	}
	return e.tier, true
}

// TierUsed returns the bytes resident on one tier. Summed over all tiers
// it equals Used() — every block is resident in exactly one tier.
func (m *Manager) TierUsed(t memsim.TierID) int64 {
	if !t.Valid() {
		return 0
	}
	return m.tierUsed[t]
}

// SetResidency rebinds a resident block to another tier and reports
// whether the rebind happened. It is the tiering engine's migration
// primitive: pure metadata — LRU order, stats and capacity are untouched;
// the engine charges the actual data movement to the memory system. Under
// a tenant quota the move must fit the destination budget (the engine
// pre-filters its plans with CanMigrate, so a refusal here means the
// caller skipped that step).
func (m *Manager) SetResidency(id BlockID, to memsim.TierID) bool {
	if !to.Valid() {
		panic(fmt.Sprintf("blockmgr: invalid residency tier %d for %s", to, id))
	}
	e, ok := m.blocks[id]
	if !ok {
		return false
	}
	if m.quota != nil && !m.quota.Move(e.tier, to, e.bytes) {
		return false
	}
	m.tierUsed[e.tier] -= e.bytes
	e.tier = to
	m.tierUsed[to] += e.bytes
	return true
}

// CanMigrate reports whether rebinding a resident block to the given tier
// would be admitted by the tenant quota (always true when unmetered). The
// tiering engine filters planned moves through this before charging any
// migration traffic.
func (m *Manager) CanMigrate(id BlockID, to memsim.TierID) bool {
	e, ok := m.blocks[id]
	if !ok {
		return false
	}
	return m.quota == nil || m.quota.CanMove(e.tier, to, e.bytes)
}

// AppendBlocks appends every resident block to dst, ordered by id — the
// deterministic enumeration migration policies plan over — and returns
// the extended slice. dst is grown at most once, so a caller passing the
// previous epoch's buffer back allocates only when the manager has grown
// past it; AppendBlocks(nil) is a fresh list sized to the manager.
func (m *Manager) AppendBlocks(dst []BlockInfo) []BlockInfo {
	dst = slices.Grow(dst, len(m.order))
	for _, e := range m.order {
		dst = append(dst, BlockInfo{ID: e.id, Bytes: e.bytes, Items: e.items, Tier: e.tier})
	}
	return dst
}

// orderIndex returns the position of id in the id-ordered index, or the
// position it would be inserted at.
func (m *Manager) orderIndex(id BlockID) int {
	lo, hi := 0, len(m.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.order[mid].id.Less(id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the block's data and size, marking it most recently used.
func (m *Manager) Get(id BlockID) (data any, bytes int64, items int, ok bool) {
	e, found := m.blocks[id]
	if !found {
		m.misses++
		return nil, 0, 0, false
	}
	m.hits++
	m.lru.MoveToFront(e.elem)
	if m.obs != nil {
		m.obs.BlockAccessed(id, e.bytes)
	}
	return e.data, e.bytes, e.items, true
}

// Peek returns a block's data without recording a hit or renewing its LRU
// position: a read-only view of the store as of stage start, used by
// phase-1 task compute running concurrently. The hit and its LRU effect
// are staged by the task context and applied later via ReplayHit. Peek
// never fires the observer — phase-1 workers must not mutate the hotness
// ledger; the staged hit is observed at replay time instead.
func (m *Manager) Peek(id BlockID) (data any, bytes int64, items int, ok bool) {
	e, found := m.blocks[id]
	if !found {
		return nil, 0, 0, false
	}
	return e.data, e.bytes, e.items, true
}

// ReplayHit applies a staged cache hit at commit time: the hit is counted
// and the block's LRU position renewed if it is still resident (a bounded
// cache may have evicted it between the task's read and its commit).
func (m *Manager) ReplayHit(id BlockID) {
	m.hits++
	if e, ok := m.blocks[id]; ok {
		m.lru.MoveToFront(e.elem)
		if m.obs != nil {
			m.obs.BlockAccessed(id, e.bytes)
		}
	}
}

// ReplayMiss applies a staged cache miss at commit time.
func (m *Manager) ReplayMiss() { m.misses++ }

// Put stores a block, evicting least-recently-used blocks if needed, and
// returns the ids of evicted blocks so callers can account recomputation.
// A block larger than the whole capacity is not stored (Spark drops such
// partitions rather than thrashing the cache). The stored block is
// resident on the landing tier, even when it overwrites a block that had
// been migrated elsewhere (an overwrite rewrites the data). Under a
// tenant quota the quota's Place decides the tier instead — fast while
// the fast budget holds, spilled to the slow tier after that — and a
// placement that fits neither budget panics with *QuotaExceededError;
// Put runs on the driver's partition-ordered commit path, so harness
// entry points recover the panic into a typed per-job error.
func (m *Manager) Put(id BlockID, data any, bytes int64, items int) (evicted []BlockID) {
	if bytes < 0 {
		panic(fmt.Sprintf("blockmgr: negative block size %d for %s", bytes, id))
	}
	old, overwrite := m.blocks[id]
	if overwrite {
		m.removeEntry(old)
	}
	if m.capacity > 0 && bytes > m.capacity {
		// The oversized rewrite is not stored, but it did displace the
		// resident incarnation: that block is gone, and nothing else
		// would tell the observer.
		if overwrite && m.obs != nil {
			m.obs.BlockDropped(id, old.bytes)
		}
		return nil
	}
	for m.capacity > 0 && m.used+bytes > m.capacity && m.lru.Len() > 0 {
		victim := m.lru.Back().Value.(*entry)
		m.removeEntry(victim)
		m.evictions++
		evicted = append(evicted, victim.id)
		if m.obs != nil {
			m.obs.BlockEvicted(victim.id, victim.bytes)
		}
	}
	tier := m.landing
	if m.quota != nil {
		placed, err := m.quota.Place(id, bytes)
		if err != nil {
			panic(err)
		}
		tier = placed
	}
	e := &entry{id: id, data: data, bytes: bytes, items: items, tier: tier}
	e.elem = m.lru.PushFront(e)
	m.blocks[id] = e
	// The commit path stores partitions in increasing order, so the new
	// id usually sorts last and the index grows by an append.
	if n := len(m.order); n == 0 || m.order[n-1].id.Less(id) {
		m.order = append(m.order, e)
	} else {
		m.order = slices.Insert(m.order, m.orderIndex(id), e)
	}
	m.used += bytes
	m.tierUsed[e.tier] += bytes
	if m.obs != nil {
		m.obs.BlockPut(id, bytes)
	}
	return evicted
}

// Remove drops a block if present and reports whether it existed.
//
//simlint:allow unreached single-block drops are the traffic tiering/storm_test.go pins its plan digests under
func (m *Manager) Remove(id BlockID) bool {
	e, ok := m.blocks[id]
	if !ok {
		return false
	}
	m.removeEntry(e)
	if m.obs != nil {
		m.obs.BlockDropped(id, e.bytes)
	}
	return true
}

// RemoveAll invalidates the whole store — an executor crash losing its
// cache — and reports how many blocks and bytes were dropped so the
// caller can account the loss. Hit/miss/eviction statistics survive;
// dropped partitions are recomputed from lineage on their next access,
// exactly like blocks lost with a Spark executor.
func (m *Manager) RemoveAll() (blocks int, bytes int64) {
	blocks = len(m.blocks)
	bytes = m.used
	if m.quota != nil {
		// Return every block's bytes to the tenant budget.
		for _, e := range m.order {
			m.quota.Release(e.tier, e.bytes)
		}
	}
	if m.obs != nil {
		// Notify in id order so observers see a deterministic drop
		// sequence.
		for _, e := range m.order {
			m.obs.BlockDropped(e.id, e.bytes)
		}
	}
	m.blocks = make(map[BlockID]*entry)
	m.order = nil
	m.lru.Init()
	m.used = 0
	m.tierUsed = [memsim.NumTiers]int64{}
	return blocks, bytes
}

func (m *Manager) removeEntry(e *entry) {
	m.lru.Remove(e.elem)
	delete(m.blocks, e.id)
	i := m.orderIndex(e.id)
	m.order = slices.Delete(m.order, i, i+1)
	m.used -= e.bytes
	m.tierUsed[e.tier] -= e.bytes
	if m.quota != nil {
		m.quota.Release(e.tier, e.bytes)
	}
}
