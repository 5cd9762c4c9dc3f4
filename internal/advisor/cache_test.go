package advisor

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hibench"
	"repro/internal/telemetry"
)

func sampleResult(key string) Result {
	return Result{
		Query:      hibench.Query{Workload: "pagerank", Size: "tiny", Placement: "tier:2", Seed: 1},
		DurationNS: 123456789,
		Seconds:    0.123456789,
		NVMShare:   0.75,
	}
}

// sealEntry lays an entry file out by hand, independently of Cache.store,
// so tests can build files store would never write.
func sealEntry(schema uint16, hash, key string, record, body []byte) []byte {
	var rest []byte
	rest = binary.LittleEndian.AppendUint16(rest, uint16(len(hash)))
	rest = append(rest, hash...)
	rest = binary.LittleEndian.AppendUint16(rest, uint16(len(key)))
	rest = append(rest, key...)
	rest = binary.LittleEndian.AppendUint32(rest, uint32(len(record)))
	rest = append(rest, record...)
	rest = append(rest, body...)
	return sealPayload(schema, rest)
}

// sealPayload puts a valid header — magic, schema, checksum — before
// arbitrary section bytes.
func sealPayload(schema uint16, rest []byte) []byte {
	data := []byte(cacheMagic)
	data = binary.LittleEndian.AppendUint16(data, schema)
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(rest, crc32.MakeTable(crc32.Castagnoli)))
	return append(data, rest...)
}

// rendered is the document /v1/eval answers for res.
func rendered(t testing.TB, res Result) []byte {
	t.Helper()
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// sameBits compares two results leaf by leaf as the record stores them,
// which tells -0 from 0 and compares a NaN equal to itself.
func sameBits(t testing.TB, a, b Result) bool {
	t.Helper()
	ra, errA := appendResult(nil, a)
	rb, errB := appendResult(nil, b)
	if errA != nil || errB != nil {
		t.Fatalf("encode: %v, %v", errA, errB)
	}
	return bytes.Equal(ra, rb)
}

func TestCacheRoundTrip(t *testing.T) {
	c := OpenCache(t.TempDir(), "hash-a")
	key := "pagerank|tiny|tier:2||1"
	if _, ok := c.Lookup(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := sampleResult(key)
	if err := c.Store(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup(key)
	if !ok {
		t.Fatal("stored entry not found")
	}
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	entry, ok := c.lookup(key)
	if !ok || !bytes.Equal(entry.body, rendered(t, want)) {
		t.Fatalf("stored body is not the stdlib rendering of the result:\n%s", entry.body)
	}
	if data, err := os.ReadFile(c.path(key)); err != nil || !bytes.Equal(data, sealEntry(cacheSchema, "hash-a", key, entry.record, entry.body)) {
		t.Fatalf("entry file does not follow the documented layout (read error %v)", err)
	}
}

func TestCacheEngineHashInvalidation(t *testing.T) {
	dir := t.TempDir()
	key := "pagerank|tiny|tier:2||1"
	old := OpenCache(dir, "hash-old")
	if err := old.Store(key, sampleResult(key)); err != nil {
		t.Fatal(err)
	}
	if _, ok := OpenCache(dir, "hash-new").Lookup(key); ok {
		t.Fatal("entry from another engine generation reported a hit")
	}
	// The old generation still reads its own entry.
	if _, ok := OpenCache(dir, "hash-old").Lookup(key); !ok {
		t.Fatal("original generation lost its entry")
	}
}

func TestCacheCorruptedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c := OpenCache(dir, "hash-a")
	const key, otherKey = "pagerank|tiny|tier:0||1", "some|other|cell||9"
	if err := c.Store(key, sampleResult(key)); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := c.lookup(key)
	for name, garbage := range map[string][]byte{
		"empty":        nil,
		"truncated":    valid[:len(valid)/2],
		"not-an-entry": []byte("\x00\x01\x02 not an entry at all"),
		"wrong-schema": sealEntry(cacheSchema+1, "hash-a", key, entry.record, entry.body),
		"wrong-key":    sealEntry(cacheSchema, "hash-a", otherKey, entry.record, entry.body),
		"no-body":      sealEntry(cacheSchema, "hash-a", key, entry.record, nil),
		"long-record":  sealEntry(cacheSchema, "hash-a", key, append(bytes.Clone(entry.record), 0), entry.body),
		// What this slot held before schema 2: a miss once, then overwritten.
		"schema-1-json": []byte(`{"schema":1,"engine_hash":"hash-a","key":"pagerank|tiny|tier:0||1","result":{"duration_ns":5}}`),
	} {
		if err := os.WriteFile(c.path(key), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Lookup(key); ok {
			t.Errorf("%s entry reported a hit; want miss", name)
		}
	}
	// No single flipped bit gets through: not as a hit with another
	// number in it, which is what the JSON entries did with a digit.
	for bit := 0; bit < 8*len(valid); bit++ {
		flipped := bytes.Clone(valid)
		flipped[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(c.path(key), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, ok := c.Lookup(key); ok {
			t.Fatalf("entry with bit %d of byte %d flipped reported a hit: %+v", bit%8, bit/8, res)
		}
	}
	// A fresh store repairs the slot.
	if err := c.Store(key, sampleResult(key)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(key); !ok {
		t.Fatal("re-stored entry not found")
	}
}

func TestCacheLazyDirCreation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub", "cache")
	c := OpenCache(dir, "hash-a")
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("lookup in nonexistent dir reported a hit")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("lookup created the cache directory; creation must be lazy")
	}
	if err := c.Store("k", sampleResult("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("k"); !ok {
		t.Fatal("entry missing after store into fresh dir")
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("nil cache reported a hit")
	}
	if err := c.Store("k", Result{}); err != nil {
		t.Fatal(err)
	}
}

// A value the layout cannot carry is a store error and no file, never an
// entry cut to fit: a string past its 16-bit length prefix (in the record
// or as the key), a float JSON has no spelling for. The engine counts the
// failure and still answers the caller in hand.
func TestCacheStoreRefusesWhatItCannotCarry(t *testing.T) {
	dir := t.TempDir()
	c := OpenCache(dir, "hash-a")
	long := strings.Repeat("x", math.MaxUint16+1)
	longNote, nan := sampleResult("k"), sampleResult("k")
	longNote.Summary.Note = long
	nan.Seconds = math.NaN()
	for name, tc := range map[string]struct {
		key string
		res Result
	}{
		"long-note": {"k", longNote},
		"long-key":  {long, sampleResult("k")},
		"nan":       {"k", nan},
	} {
		if err := c.Store(tc.key, tc.res); err == nil {
			t.Errorf("%s: Store succeeded", name)
		}
		if _, ok := c.Lookup(tc.key); ok {
			t.Errorf("%s: a refused store left an entry behind", name)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Errorf("refused stores left files behind: %v", files)
	}
	longNote.Summary.Note = long[:math.MaxUint16]
	if err := c.Store("k", longNote); err != nil {
		t.Fatalf("a string of exactly %d bytes must fit: %v", math.MaxUint16, err)
	}
	if got, ok := c.Lookup("k"); !ok || got != longNote {
		t.Fatal("the longest legal string did not survive the round trip")
	}

	reg := telemetry.NewRegistry()
	e := NewEngine(Options{CacheDir: t.TempDir(), Registry: reg, Runner: func(q hibench.Query) (hibench.RunResult, error) {
		run := fabricate(q)
		run.Metrics.EnergyJ = math.Inf(1)
		if q.Workload == "lda" {
			run.Summary.Note = long
		}
		return run, nil
	}})
	// A cell with no record cannot ride a flight: counted, and an error.
	if _, err := e.Eval(hibench.Query{Workload: "lda", Size: "tiny"}); err == nil || reg.Get(CounterStoreError) != 1 {
		t.Fatalf("eval of a cell with an overlong string: err %v, %d store errors; want an error and 1", err, reg.Get(CounterStoreError))
	}
	for i := 1; i <= 2; i++ {
		res, err := e.Eval(hibench.Query{Workload: "sort", Size: "tiny"})
		if err != nil || !math.IsInf(res.Metrics.EnergyJ, 1) {
			t.Fatalf("eval %d of an unrenderable cell: %+v, %v; want the result in process", i, res, err)
		}
		if got := reg.Get(CounterStoreError); got != int64(1+i) {
			t.Fatalf("store errors after eval %d = %d; want %d", i, got, 1+i)
		}
	}
}

// forEachLeaf visits every leaf field under v, depth first in declaration
// order; a kind the record codec has no encoding for fails the test, so a
// new kind of field in Result cannot be skipped quietly.
func forEachLeaf(t testing.TB, path string, v reflect.Value, visit func(path string, leaf reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			forEachLeaf(t, path+"."+v.Type().Field(i).Name, v.Field(i), visit)
		}
	case reflect.Int, reflect.Int64, reflect.Float64, reflect.String:
		visit(path, v)
	default:
		t.Fatalf("%s is a %s: teach recordCodec (and this test) to carry it", path, v.Kind())
	}
}

// The codec is a hand-written field list. Every leaf of Result — through
// hibench.Query, telemetry.RunMetrics, workloads.Summary and
// memsim.Counters — is set to a value no other leaf has; a field the walk
// skips comes back zero, a pair it swaps comes back exchanged.
func TestRecordCodecCoversEveryLeaf(t *testing.T) {
	var want Result
	n := 0
	forEachLeaf(t, "Result", reflect.ValueOf(&want).Elem(), func(_ string, leaf reflect.Value) {
		n++
		switch leaf.Kind() {
		case reflect.String:
			leaf.SetString(fmt.Sprintf("leaf-%d", n))
		case reflect.Float64:
			leaf.SetFloat(float64(n) + 0.5)
		default:
			leaf.SetInt(int64(n))
		}
	})
	if n < 35 {
		t.Fatalf("walked %d leaves; Result has more than that", n)
	}
	record, err := appendResult(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeResult(record)
	if !ok {
		t.Fatal("a record appendResult wrote does not decode")
	}
	forEachLeaf(t, "Result", reflect.ValueOf(got), func(path string, leaf reflect.Value) {
		if leaf.IsZero() {
			t.Errorf("%s came back zero: the codec drops it", path)
		}
	})
	if got != want {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Exactly the record decodes: not a prefix of it, not it and a byte.
	for cut := 0; cut < len(record); cut++ {
		if _, ok := decodeResult(record[:cut]); ok {
			t.Fatalf("a record cut to %d of %d bytes decoded", cut, len(record))
		}
	}
	if _, ok := decodeResult(append(record, 0)); ok {
		t.Error("a record with a trailing byte decoded")
	}
}

// TestRecordCodecRoundTripsEdgeValues draws every leaf from the values an
// encoding gets wrong first: -0, subnormals, the float and integer
// extremes, NaN, empty and non-UTF-8 strings.
func TestRecordCodecRoundTripsEdgeValues(t *testing.T) {
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32 + 1}
	floats := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(-1), math.NaN(), 0.1}
	strs := []string{"", "a", "tier:2", "\xff\x00\xfe", strings.Repeat("é", 300)}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			var r Result
			forEachLeaf(t, "Result", reflect.ValueOf(&r).Elem(), func(_ string, leaf reflect.Value) {
				switch leaf.Kind() {
				case reflect.String:
					leaf.SetString(strs[rng.Intn(len(strs))])
				case reflect.Float64:
					if rng.Intn(4) == 0 {
						leaf.SetFloat(rng.NormFloat64())
					} else {
						leaf.SetFloat(floats[rng.Intn(len(floats))])
					}
				default:
					if rng.Intn(4) == 0 {
						leaf.SetInt(int64(rng.Uint64()))
					} else {
						leaf.SetInt(ints[rng.Intn(len(ints))])
					}
				}
			})
			args[0] = reflect.ValueOf(r)
		},
	}
	if err := quick.Check(func(r Result) bool {
		record, err := appendResult(nil, r)
		if err != nil {
			return false
		}
		got, ok := decodeResult(record)
		return ok && sameBits(t, got, r)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzCacheEntryDecode puts arbitrary bytes where an entry file belongs
// (a torn write, a stranger's file, a hostile cache directory). Lookup
// never panics; it reports a miss or a Result that is well-formed in the
// sense that matters to a cache — stored again, it reads back unchanged —
// and whose stored body is the stdlib's rendering of it.
//
// Mutation alone almost never gets past the checksum, so each input is
// also tried as the section bytes behind a freshly sealed header, which
// puts the fuzzer inside the parser. A sealed input is a forgery: the
// checksum vouches for whatever body it came with, so for those only the
// first two properties are claimed. The corpus files under testdata/fuzz
// are such section bytes, each broken in one place.
func FuzzCacheEntryDecode(f *testing.F) {
	const key, hash = "pagerank|tiny|tier:2||1", "hash-a"
	res := sampleResult(key)
	record, err := appendResult(nil, res)
	if err != nil {
		f.Fatal(err)
	}
	body := rendered(f, res)
	valid := sealEntry(cacheSchema, hash, key, record, body)
	for _, seed := range [][]byte{
		valid,
		valid[:len(valid)/2],
		valid[:headerBytes],
		valid[headerBytes:],
		sealEntry(cacheSchema+1, hash, key, record, body),
		sealEntry(cacheSchema, "hash-b", key, record, body),
		sealEntry(cacheSchema, hash, key, record[:len(record)-1], body),
		[]byte(`{"schema":1,"engine_hash":"hash-a","key":"pagerank|tiny|tier:2||1","result":{}}`),
		[]byte("\x00\x01\x02 not an entry at all"),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := OpenCache(t.TempDir(), hash)
		for i, file := range [][]byte{data, sealPayload(cacheSchema, data)} {
			forged := i == 1
			if err := os.WriteFile(c.path(key), file, 0o644); err != nil {
				t.Fatal(err)
			}
			res, ok := c.Lookup(key)
			if !ok {
				continue
			}
			if entry, _ := c.lookup(key); !forged && !bytes.Equal(entry.body, rendered(t, res)) {
				t.Fatalf("a hit's body is not the rendering of its record:\n%s\n%+v", entry.body, res)
			}
			if err := c.Store(key, res); err != nil {
				if _, jsonErr := json.Marshal(res); forged && jsonErr != nil {
					continue // a forged NaN or Inf: Store is right to refuse it
				}
				t.Fatalf("a result Lookup served cannot be stored: %v", err)
			}
			if again, ok := c.Lookup(key); !ok || !sameBits(t, again, res) {
				t.Fatalf("a result Lookup served does not survive a store: %+v, then %+v (hit %v)", res, again, ok)
			}
		}
	})
}
