package blockmgr

import (
	"fmt"

	"repro/internal/memsim"
)

// ChunkID addresses one map task's chunk set within the shuffle layer.
type ChunkID struct {
	// Shuffle is the shuffle the chunk set belongs to.
	Shuffle int
	// MapPart is the map partition that produced it.
	MapPart int
}

// ChunkStore is the block manager's ownership ledger for shuffle chunk
// sets: every committed map output is registered here with the tier it
// landed on, giving chunks the same residency/landing-tier accounting the
// RDD cache gets from Manager — without entering the cache's LRU or the
// tiering engine's hotness ledger (chunks are freed when their shuffle is
// dropped, not evicted, and migrating them would perturb the frozen
// virtual ledger).
//
// Readers resolve a chunk's tier through TierOf to charge reference reads
// against the tier the bytes actually live on. Registration and dropping
// happen on the driver (partition-ordered commits, the crash path and
// shuffle cleanup); phase-1 workers only call TierOf, so the store needs
// no locking.
type ChunkStore struct {
	landing  memsim.TierID
	resident map[ChunkID]memsim.TierID
}

// NewChunkStore returns an empty store whose chunks land on the given tier.
func NewChunkStore(landing memsim.TierID) *ChunkStore {
	if !landing.Valid() {
		panic(fmt.Sprintf("blockmgr: invalid chunk landing tier %d", landing))
	}
	return &ChunkStore{landing: landing, resident: make(map[ChunkID]memsim.TierID)}
}

// ChunkPut records one committed map output on the landing tier,
// replacing any previous registration (a resubmitted map task rewrites
// its output). It implements the shuffle store's ledger hook, whose size
// argument residency has no use for.
func (s *ChunkStore) ChunkPut(shuffleID, mapPart int, _ int64) {
	s.resident[ChunkID{Shuffle: shuffleID, MapPart: mapPart}] = s.landing
}

// ChunkDropped releases one chunk set's residency (shuffle cleanup or
// executor loss). It implements the shuffle store's ledger hook.
func (s *ChunkStore) ChunkDropped(shuffleID, mapPart int) {
	delete(s.resident, ChunkID{Shuffle: shuffleID, MapPart: mapPart})
}

// TierOf returns the tier a registered chunk set is resident on.
func (s *ChunkStore) TierOf(shuffleID, mapPart int) (memsim.TierID, bool) {
	tier, ok := s.resident[ChunkID{Shuffle: shuffleID, MapPart: mapPart}]
	return tier, ok
}
