// Package shuffle implements the map-output store behind wide RDD
// dependencies: a hash shuffle in which every map task writes ONE columnar
// chunk set — per-reduce key/value columns carved from a single backing
// page — and every reduce task borrows its chunk from every map output by
// reference. Chunk sets record which executor produced them so the reader
// can distinguish reference reads (co-resident, no copy) from remote reads
// that pay the full transfer — the executor co-operation overhead of the
// paper's Takeaway 6, and the copy tax a Sparkle-style shared pool avoids.
//
// Like blockmgr, the store is a pure data structure; memory charging is
// performed by the task context that reads or writes chunks. Residency
// accounting (which tier a chunk set's page lives on) is delegated to an
// optional ChunkLedger — the block manager's ChunkStore in a wired
// cluster.
package shuffle

import (
	"errors"
	"fmt"
	"sort"
)

// ErrSegmentLost is the sentinel behind SegmentLostError: a map output
// that existed but was lost to an executor crash. Readers must not treat
// it as an empty output — the parent map stage has to be resubmitted.
var ErrSegmentLost = errors.New("shuffle: map output lost")

// SegmentLostError is the typed fetch failure a reduce task hits when a
// map output it needs was deregistered by an executor crash. It is
// Spark's FetchFailed: the DAG scheduler reacts by resubmitting the
// parent map stage for the lost partitions.
type SegmentLostError struct {
	// Shuffle is the shuffle whose output is missing.
	Shuffle int
	// MapPart is the lost map partition.
	MapPart int
	// Reduce is the reduce partition whose fetch failed.
	Reduce int
}

// Error implements error.
func (e *SegmentLostError) Error() string {
	return fmt.Sprintf("shuffle: fetch failed for shuffle %d: map output %d lost (reduce %d)", e.Shuffle, e.MapPart, e.Reduce)
}

// Unwrap makes errors.Is(err, ErrSegmentLost) true.
func (e *SegmentLostError) Unwrap() error { return ErrSegmentLost }

// ChunkSet is one map task's entire shuffle output: columnar chunks for
// every reduce partition, sharing one backing page built in a single
// scatter pass. Reduce tasks index Chunks by their reduce partition and
// borrow the columns in place — the store never copies records.
type ChunkSet struct {
	// Shuffle and MapPart identify the map output.
	Shuffle int
	MapPart int
	// ExecID is the executor whose map task wrote the set; readers on the
	// same executor take the chunk by reference, remote readers pay the
	// copy.
	ExecID int
	// Chunks holds the per-reduce columnar chunks, boxed once per map
	// task as a typed slice (e.g. []rdd.Chunk[K,V]) indexed by reduce
	// partition; the reduce side knows the concrete type. A dropped set
	// has nil Chunks, so a stale reference held across a FetchFailed
	// resubmission fails loudly instead of resurrecting freed records.
	Chunks any
	// Items is the per-reduce record count; a zero entry means the map
	// task routed nothing to that reduce partition.
	Items []int
	// Bytes is the per-reduce serialized chunk size.
	Bytes []int64
}

// TotalBytes sums the serialized size of the set's chunks.
func (cs *ChunkSet) TotalBytes() int64 {
	var total int64
	for _, b := range cs.Bytes {
		total += b
	}
	return total
}

// NonEmpty counts the reduce partitions the set holds records for — the
// unit "map outputs lost" telemetry is reported in.
func (cs *ChunkSet) NonEmpty() int {
	n := 0
	for _, items := range cs.Items {
		if items > 0 {
			n++
		}
	}
	return n
}

// invalidate frees the set's payload so stale references die loudly.
func (cs *ChunkSet) invalidate() { cs.Chunks = nil }

// ChunkLedger observes chunk-set lifetime for residency accounting. The
// block manager's ChunkStore implements it; a nil ledger is skipped.
type ChunkLedger interface {
	// ChunkPut records a committed map output and its serialized size.
	ChunkPut(shuffleID, mapPart int, bytes int64)
	// ChunkDropped releases a map output (shuffle cleanup, executor loss
	// or a resubmission overwrite).
	ChunkDropped(shuffleID, mapPart int)
}

// csLoc addresses one chunk set across shuffles, the currency of the
// per-executor index.
type csLoc struct {
	shuffle int
	mapPart int
}

// shuffleState is one shuffle's outputs: chunk sets indexed by map
// partition, so a reduce task's fetch is one slice copy and dropping the
// shuffle discards the whole struct.
type shuffleState struct {
	numMapParts int
	// byMap maps map partition -> that task's chunk set, nil where the
	// map task wrote nothing (yet).
	byMap []*ChunkSet
	// lost marks map partitions whose outputs were dropped by an
	// executor crash. A re-registered output (a resubmitted map task's
	// PutChunks) clears the mark.
	lost map[int]bool
}

// Store is the application-wide registry of shuffle outputs, indexed by
// shuffle ID (per-shuffle state, O(1) DropShuffle) and by executor
// (crash deregistration touches only the crashed executor's chunk sets,
// not the global population).
type Store struct {
	shuffles map[int]*shuffleState
	// byExec maps executor ID -> the set of chunk-set locations it wrote,
	// maintained by PutChunks/DropShuffle so DeregisterExecutor never
	// scans.
	byExec map[int]map[csLoc]struct{}
	bytes  int64
	ledger ChunkLedger
}

// NewStore returns an empty shuffle store.
func NewStore() *Store {
	return &Store{
		shuffles: make(map[int]*shuffleState),
		byExec:   make(map[int]map[csLoc]struct{}),
	}
}

// SetLedger attaches the residency ledger notified of chunk-set puts and
// drops (the block manager's ChunkStore in a wired cluster).
func (s *Store) SetLedger(l ChunkLedger) { s.ledger = l }

// RegisterShuffle declares a shuffle's map-side width. Must be called
// before PutChunks/Inputs for that shuffle id.
func (s *Store) RegisterShuffle(shuffleID, numMapParts int) {
	if numMapParts <= 0 {
		panic(fmt.Sprintf("shuffle: shuffle %d with %d map partitions", shuffleID, numMapParts))
	}
	if st, ok := s.shuffles[shuffleID]; ok {
		st.numMapParts = numMapParts
		return
	}
	s.shuffles[shuffleID] = &shuffleState{
		numMapParts: numMapParts,
		byMap:       make([]*ChunkSet, numMapParts),
		lost:        make(map[int]bool),
	}
}

// forget removes one chunk set's bookkeeping (byte counters, executor
// index, residency ledger) and frees its payload; the caller clears the
// byMap slot.
func (s *Store) forget(l csLoc, cs *ChunkSet) {
	s.bytes -= cs.TotalBytes()
	if set, ok := s.byExec[cs.ExecID]; ok {
		delete(set, l)
		if len(set) == 0 {
			delete(s.byExec, cs.ExecID)
		}
	}
	cs.invalidate()
	if s.ledger != nil {
		s.ledger.ChunkDropped(l.shuffle, l.mapPart)
	}
}

// PutChunks stores one map task's chunk set, replacing any previous
// output for the same map partition (a resubmitted task's rewrite).
func (s *Store) PutChunks(cs *ChunkSet) {
	st, ok := s.shuffles[cs.Shuffle]
	if !ok {
		panic(fmt.Sprintf("shuffle: PutChunks on unregistered shuffle %d", cs.Shuffle))
	}
	if cs.MapPart < 0 || cs.MapPart >= st.numMapParts {
		panic(fmt.Sprintf("shuffle: PutChunks map partition %d out of range [0,%d)", cs.MapPart, st.numMapParts))
	}
	l := csLoc{cs.Shuffle, cs.MapPart}
	if old := st.byMap[cs.MapPart]; old != nil {
		s.forget(l, old)
	}
	st.byMap[cs.MapPart] = cs
	bytes := cs.TotalBytes()
	s.bytes += bytes
	set := s.byExec[cs.ExecID]
	if set == nil {
		set = make(map[csLoc]struct{})
		s.byExec[cs.ExecID] = set
	}
	set[l] = struct{}{}
	if s.ledger != nil {
		s.ledger.ChunkPut(cs.Shuffle, cs.MapPart, bytes)
	}
	// A rewritten output is no longer lost (map-stage resubmission).
	delete(st.lost, cs.MapPart)
}

// Inputs returns the chunk sets feeding a reduce task, ordered by map
// partition (deterministic). Map tasks that wrote nothing appear as nil
// entries; a map output lost to an executor crash fails the whole fetch
// with the typed *SegmentLostError for the lowest lost map partition.
func (s *Store) Inputs(shuffleID, reducePart int) ([]*ChunkSet, error) {
	st, ok := s.shuffles[shuffleID]
	if !ok {
		panic(fmt.Sprintf("shuffle: shuffle %d not registered", shuffleID))
	}
	if len(st.lost) > 0 {
		for m := 0; m < st.numMapParts; m++ {
			if st.lost[m] {
				return nil, &SegmentLostError{Shuffle: shuffleID, MapPart: m, Reduce: reducePart}
			}
		}
	}
	out := make([]*ChunkSet, st.numMapParts)
	copy(out, st.byMap)
	return out, nil
}

// LostMapParts returns the sorted lost map partitions of a shuffle — the
// exact set a resubmitted map stage must recompute.
func (s *Store) LostMapParts(shuffleID int) []int {
	st, ok := s.shuffles[shuffleID]
	if !ok || len(st.lost) == 0 {
		return nil
	}
	out := make([]int, 0, len(st.lost))
	for m := range st.lost {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// DeregisterExecutor drops every live chunk set written by one executor —
// the map-output side of an executor crash — and marks the affected map
// partitions lost so subsequent fetches fail with ErrSegmentLost instead
// of silently missing data. Dropped sets are invalidated in place, so any
// stale reference a reduce task still holds dies loudly rather than
// resurrecting freed records after the resubmission. It returns the
// number of non-empty per-reduce chunks dropped (the pre-chunk "segments
// lost" telemetry unit) and their total bytes. The per-executor index
// makes this proportional to the crashed executor's own output, not the
// store's population.
func (s *Store) DeregisterExecutor(execID int) (segments int, bytes int64) {
	for l := range s.byExec[execID] {
		st := s.shuffles[l.shuffle]
		cs := st.byMap[l.mapPart]
		csBytes := cs.TotalBytes()
		s.bytes -= csBytes
		bytes += csBytes
		segments += cs.NonEmpty()
		cs.invalidate()
		if s.ledger != nil {
			s.ledger.ChunkDropped(l.shuffle, l.mapPart)
		}
		st.byMap[l.mapPart] = nil
		st.lost[l.mapPart] = true
	}
	delete(s.byExec, execID)
	return segments, bytes
}

// TotalBytes is the cumulative size of all live chunk sets.
func (s *Store) TotalBytes() int64 { return s.bytes }

// DropShuffle frees a shuffle's chunk sets (after its consumer stage
// ran), invalidating each so stale references cannot outlive the drop.
func (s *Store) DropShuffle(shuffleID int) {
	st, ok := s.shuffles[shuffleID]
	if !ok {
		return
	}
	for mapPart, cs := range st.byMap {
		if cs != nil {
			s.forget(csLoc{shuffleID, mapPart}, cs)
			st.byMap[mapPart] = nil
		}
	}
	delete(s.shuffles, shuffleID)
}
