package rdd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// Generator is a registered data generator. ID names its fill body, and P
// holds every parameter the body reads besides the seed and the record
// range, so (ID, params, seed, n, parts, part) determines a partition's
// records. That is the key under which a GenStore hands one page to every
// source that asks for the same partition. ID is an explicit name, never
// derived from a closure or a dataset name.
type Generator[T any, P comparable] struct {
	ID string
	// Fill populates out with records [lo, hi) of the dataset, drawing
	// from the partition's stream r.
	Fill func(p P, seed int64, r *rand.Rand, lo, hi int, out []T)
}

// Source is g's dataset of n records over parts partitions under params
// p: GenerateBatch over g.Fill, whose partitions come from d's GenStore.
// Each is generated once for every source that reads the store with the
// same key, and every read charges what generating it charges.
func (g Generator[T, P]) Source(d Driver, name string, p P, n, parts int) *RDD[T] {
	seed := d.Seed()
	parts = sourceParts(d, n, parts)
	fresh := fillPart(seed, n, parts, func(r *rand.Rand, lo, hi int, out []T) { g.Fill(p, seed, r, lo, hi, out) })
	fill := func(part int, _ struct{}) []T { return fresh(part) }
	store := d.GenStore()
	// Box the params once: a key built per ask must not allocate.
	key := genKey{gen: g.ID, params: p, seed: seed, n: n, parts: parts}
	return generated(d, name, parts, func(part int) []T {
		k := key
		k.part = part
		return storedPage(store, k, fill, struct{}{}, SizeOfSlice[T])
	})
}

// Derivation is a registered derived page: a value a task computes from
// inputs it already holds by a pure fill, such as one partition's Gibbs
// sweep in one lda iteration. ID names the fill body and P holds every
// parameter it reads besides the seed and the partition. The inputs in
// that the task hands the fill — its parent partition, a broadcast value
// — must themselves be pure in (ID, params, seed, n, parts, part), so that
// key determines the page, and a GenStore keys it like a generated
// partition. The fill takes no TaskContext, so it cannot charge: the task
// charges from counts its page carries, on every ask, and the virtual
// ledger cannot tell a shared page from a fresh one.
type Derivation[T Sized, In any, P comparable] struct {
	ID   string
	Fill func(p P, seed int64, part int, in In) T
}

// Derived is a Derivation bound to one run's params, partitioning and
// GenStore.
type Derived[T Sized, In any] struct {
	store *GenStore
	key   genKey                  // the params boxed once: a key built per ask must not allocate
	fill  func(part int, in In) T // Fill bound to the params and seed
}

// Bind binds dv to params p over n records in parts partitions, on d's
// seed and GenStore.
func (dv Derivation[T, In, P]) Bind(d Driver, p P, n, parts int) Derived[T, In] {
	seed := d.Seed()
	return Derived[T, In]{
		store: d.GenStore(),
		key:   genKey{gen: dv.ID, kind: derivedPage, params: p, seed: seed, n: n, parts: parts},
		fill:  func(part int, in In) T { return dv.Fill(p, seed, part, in) },
	}
}

// Page is partition part's page, computed from in on its first ask and
// kept by the store for every later one. Readers must not write it.
func (b Derived[T, In]) Page(part int, in In) T {
	k := b.key
	k.part = part
	return storedPage(b.store, k, b.fill, in, sizeOfSized[T])
}

func sizeOfSized[T Sized](v T) int64 { return v.ByteSize() }

// genKey identifies one generated partition or derived page: pure in every
// field.
type genKey struct {
	gen            string
	kind           pageKind
	params         any // a Generator's or Derivation's P: comparable by construction
	seed           int64
	n, parts, part int
}

// pageKind tells a Generator's partitions from a Derivation's pages.
type pageKind uint8

const (
	generatedPage pageKind = iota
	derivedPage
)

var kindNames = [...]string{generatedPage: "generated", derivedPage: "derived"}

// GenStore is a read-only store of generated input partitions, and of
// the pages derived from them. The runs of an evaluation batch, or
// back-to-back hibench.Runs, that read the same input share one; an
// application that shares none makes one of its own.
// Generation and derivation are pure in the key, so a page filled for one
// run is the page every other reader would have filled; every source
// still charges chargeGenerated over it, and every derived page's asker
// replays its charges, so the virtual ledger cannot tell a kept page from
// a fresh one. Consumers must not write what they read (DESIGN.md §6.1).
// The store only grows; its owner drops it whole when its last reader
// ends.
type GenStore struct {
	check bool // test seam: checksum every page at fill, for Verify

	mu      sync.Mutex
	pages   map[genKey]keptPage
	order   []keptPage // fill order of first ask, under check, for Verify
	tallies [len(kindNames)]pageTally
}

// pageTally is a store's account of one kind of page.
type pageTally struct {
	counts []GenCount // sorted by Gen
	fillNS int64      // wall-clock nanoseconds spent filling
}

// genPage is one partition's records or one derived page, filled once
// under mu.
type genPage[T any] struct {
	key    genKey
	mu     sync.Mutex
	filled bool
	page   T // a []T or a derived T
	sum    uint64
}

// keptPage is a genPage of any page type, as Verify sees it.
type keptPage interface {
	// written returns the page's key and whether its checksum moved since
	// its fill: a reader wrote it.
	written() (genKey, bool)
}

func (p *genPage[T]) written() (genKey, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.key, p.filled && pageSum(p.page) != p.sum
}

// GenCount is a store's host-side tally for one generator or derivation.
type GenCount struct {
	Gen string
	// Asked counts pages asked for; Filled the ones generated or derived;
	// Bytes the nominal bytes of the filled ones.
	Asked, Filled int
	Bytes         int64
}

// NewGenStore returns an empty store. With check set it checksums every
// page as it is filled, and Verify recomputes the sums.
func NewGenStore(check bool) *GenStore {
	return &GenStore{check: check, pages: make(map[genKey]keptPage)}
}

// storedPage returns key's page, filling it with fill(key.part, in) on
// its first ask and booking the fill, its nominal bytes and its
// wall-clock span. Concurrent askers of one key wait for the one fill, so
// every key is filled once whatever the worker count.
func storedPage[T, In any](s *GenStore, key genKey, fill func(part int, in In) T, in In, size func(T) int64) T {
	s.mu.Lock()
	tally(&s.tallies[key.kind].counts, key.gen).Asked++
	kept, ok := s.pages[key]
	if !ok {
		kept = &genPage[T]{key: key}
		s.pages[key] = kept
		if s.check {
			s.order = append(s.order, kept)
		}
	}
	s.mu.Unlock()

	p := kept.(*genPage[T])
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.filled {
		return p.page
	}
	sw := telemetry.StartStopwatch()
	p.page, p.filled = fill(key.part, in), true
	ns := int64(sw.Seconds() * 1e9)
	if s.check {
		p.sum = pageSum(p.page)
	}
	bytes := size(p.page)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.tallies[key.kind]
	c := tally(&t.counts, key.gen)
	c.Filled++
	c.Bytes += bytes
	t.fillNS += ns
	return p.page
}

// tally is gen's entry in counts, sorted by Gen, inserted on first use.
func tally(counts *[]GenCount, gen string) *GenCount {
	i, ok := slices.BinarySearchFunc(*counts, gen, func(c GenCount, g string) int { return strings.Compare(c.Gen, g) })
	if !ok {
		*counts = slices.Insert(*counts, i, GenCount{Gen: gen})
	}
	return &(*counts)[i]
}

// AddGenCount adds c into counts, sorted by Gen, and returns the slice.
func AddGenCount(counts []GenCount, c GenCount) []GenCount {
	t := tally(&counts, c.Gen)
	t.Asked += c.Asked
	t.Filled += c.Filled
	t.Bytes += c.Bytes
	return counts
}

// Counts returns the per-generator tallies of generated partitions,
// ordered by generator id, and the wall-clock seconds spent filling them.
func (s *GenStore) Counts() ([]GenCount, float64) {
	return s.counts(generatedPage)
}

// DerivedCounts is Counts for derived pages, per derivation.
func (s *GenStore) DerivedCounts() ([]GenCount, float64) {
	return s.counts(derivedPage)
}

func (s *GenStore) counts(kind pageKind) ([]GenCount, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tallies[kind]
	return slices.Clone(t.counts), float64(t.fillNS) / 1e9
}

// Verify recomputes the checksum of every page a checking store filled
// and reports the first page, in order of first ask, that a consumer
// wrote. A non-checking store verifies nothing.
func (s *GenStore) Verify() error {
	if !s.check {
		return nil
	}
	s.mu.Lock()
	order := slices.Clone(s.order)
	s.mu.Unlock()
	for _, p := range order {
		if k, written := p.written(); written {
			return fmt.Errorf("rdd: %s page %s %+v seed %d part %d/%d was written by a consumer",
				kindNames[k.kind], k.gen, k.params, k.seed, k.part, k.parts)
		}
	}
	return nil
}

// pageSum is an FNV-1a checksum of everything a page reaches: slices,
// pointers, strings and struct fields, exported or not.
func pageSum(page any) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice, reflect.Array:
			word(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				word(0)
				return
			}
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.String:
			word(uint64(v.Len()))
			h.Write([]byte(v.String()))
		case reflect.Bool:
			if v.Bool() {
				word(1)
			} else {
				word(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			word(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			word(v.Uint())
		case reflect.Float32, reflect.Float64:
			word(math.Float64bits(v.Float()))
		default:
			panic(fmt.Sprintf("rdd: cannot checksum a %s in a generated page", v.Type()))
		}
	}
	walk(reflect.ValueOf(page))
	return h.Sum64()
}
