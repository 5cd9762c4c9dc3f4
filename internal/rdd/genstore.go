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
// p: GenerateBatch over g.Fill. On a driver that shares a GenStore, each
// partition's records come from the store, generated once for every
// source in the batch with the same key.
func (g Generator[T, P]) Source(d Driver, name string, p P, n, parts int) *RDD[T] {
	seed := d.Seed()
	fill := func(r *rand.Rand, lo, hi int, out []T) { g.Fill(p, seed, r, lo, hi, out) }
	src := GenerateBatch(d, name, n, parts, fill)
	store := d.GenStore()
	if store == nil {
		return src
	}
	// Box the params once: a key built per ask must not allocate.
	key := genKey{gen: g.ID, params: p, seed: seed, n: n, parts: src.base.NumParts}
	fresh := src.fill
	src.fill = func(part int) []T {
		k := key
		k.part = part
		return storedPage(store, k, fresh)
	}
	return src
}

// genKey identifies one generated partition: pure in every field.
type genKey struct {
	gen            string
	params         any // a Generator's P: comparable by construction
	seed           int64
	n, parts, part int
}

// GenStore is a read-only store of generated input partitions shared by
// the runs of an evaluation batch that read the same input. Generation is
// pure in the key, so a page filled for one cell is the page every other
// cell would have filled; every source still charges chargeGenerated over
// it, so the virtual ledger cannot tell a shared page from a fresh one.
// Consumers must not write the records they read (DESIGN.md §6.1). The
// store only grows; its owner drops it whole when its last reader ends.
type GenStore struct {
	check bool // test seam: checksum every page at fill, for Verify

	mu     sync.Mutex
	pages  map[genKey]*genPage // nil for a store with one reader
	order  []*genPage          // fill order of first ask, for Verify
	counts []GenCount          // sorted by Gen
	fillNS int64               // wall-clock nanoseconds spent filling
}

// genPage is one partition's records, filled once under mu.
type genPage struct {
	key  genKey
	mu   sync.Mutex
	page any // a []T; nil until filled
	sum  uint64
}

// GenCount is a store's host-side tally for one generator.
type GenCount struct {
	Gen string
	// Asked counts partitions sources asked for; Filled the ones
	// generated; Bytes the nominal bytes of the generated ones.
	Asked, Filled int
	Bytes         int64
}

// NewGenStore returns an empty store for readers runs. A store for one
// run keeps no page: it counts what the run asks for and fills, and hands
// each page to its asker alone, which drops it when done with it, as a
// run without a store does. With check set the store checksums every page
// it keeps as it is filled, and Verify recomputes the sums.
func NewGenStore(readers int, check bool) *GenStore {
	s := &GenStore{check: check}
	if readers > 1 {
		s.pages = make(map[genKey]*genPage)
	}
	return s
}

// storedPage returns key's page, filling it with fill on its first ask.
// Concurrent askers of one key wait for the one fill, so every key is
// filled once whatever the worker count.
func storedPage[T any](s *GenStore, key genKey, fill func(part int) []T) []T {
	s.mu.Lock()
	tally(&s.counts, key.gen).Asked++
	p := s.pages[key]
	if p == nil && s.pages != nil {
		p = &genPage{key: key}
		s.pages[key] = p
		s.order = append(s.order, p)
	}
	s.mu.Unlock()
	if p == nil {
		return countedFill(s, key, fill)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.page == nil {
		out := countedFill(s, key, fill)
		p.page = out
		if s.check {
			p.sum = pageSum(out)
		}
	}
	return p.page.([]T)
}

// countedFill generates key's partition and books the fill, its nominal
// bytes and its wall-clock span.
func countedFill[T any](s *GenStore, key genKey, fill func(part int) []T) []T {
	sw := telemetry.StartStopwatch()
	out := fill(key.part)
	ns := int64(sw.Seconds() * 1e9)
	bytes := SizeOfSlice(out)
	s.mu.Lock()
	defer s.mu.Unlock()
	c := tally(&s.counts, key.gen)
	c.Filled++
	c.Bytes += bytes
	s.fillNS += ns
	return out
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

// Counts returns the per-generator tallies, ordered by generator id, and
// the wall-clock seconds spent filling.
func (s *GenStore) Counts() ([]GenCount, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.counts), float64(s.fillNS) / 1e9
}

// Verify recomputes the checksum of every page a checking store filled
// and reports the first page, in fill order, that a consumer wrote. A nil
// or non-checking store verifies nothing.
func (s *GenStore) Verify() error {
	if s == nil || !s.check {
		return nil
	}
	s.mu.Lock()
	order := slices.Clone(s.order)
	s.mu.Unlock()
	for _, p := range order {
		p.mu.Lock()
		page, sum := p.page, p.sum
		p.mu.Unlock()
		if page != nil && pageSum(page) != sum {
			k := p.key
			return fmt.Errorf("rdd: generated page %s %+v seed %d part %d/%d was written by a consumer",
				k.gen, k.params, k.seed, k.part, k.parts)
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
