package advisor

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hibench"
)

func sampleResult(key string) Result {
	return Result{
		Query:      hibench.Query{Workload: "pagerank", Size: "tiny", Placement: "tier:2", Seed: 1},
		DurationNS: 123456789,
		Seconds:    0.123456789,
		NVMShare:   0.75,
	}
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
	key := "pagerank|tiny|tier:0||1"
	if err := c.Store(key, sampleResult(key)); err != nil {
		t.Fatal(err)
	}
	for name, garbage := range map[string]string{
		"truncated":    `{"schema":1,"engine_ha`,
		"not-json":     "\x00\x01\x02 not json at all",
		"wrong-schema": `{"schema":999,"engine_hash":"hash-a","key":"pagerank|tiny|tier:0||1","result":{}}`,
		"wrong-key":    `{"schema":1,"engine_hash":"hash-a","key":"some|other|cell||9","result":{}}`,
	} {
		if err := os.WriteFile(c.path(key), []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Lookup(key); ok {
			t.Errorf("%s entry reported a hit; want miss", name)
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

// FuzzCacheEntryDecode puts arbitrary bytes where an entry file belongs
// (a torn write, a stranger's file, a hostile cache directory). Lookup
// never panics; it reports a miss or a Result that is well-formed in the
// sense that matters to a cache: stored again, it reads back unchanged.
func FuzzCacheEntryDecode(f *testing.F) {
	const key, hash = "pagerank|tiny|tier:2||1", "hash-a"
	valid, err := json.Marshal(cacheEntry{Schema: cacheSchema, EngineHash: hash, Key: key, Result: sampleResult(key)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		valid,
		valid[:len(valid)/2],
		[]byte(`{"schema":1,"engine_hash":"hash-a","key":"pagerank|tiny|tier:2||1","result":{}}`),
		[]byte(`{"schema":1,"engine_hash":"hash-a","key":"pagerank|tiny|tier:2||1","result":{"seconds":1e999}}`),
		[]byte(`{"schema":1,"engine_hash":"hash-a","key":"pagerank|tiny|tier:2||1","result":{"query":[]}}`),
		[]byte(`{"schema":999,"engine_hash":"hash-a","key":"pagerank|tiny|tier:2||1"}`),
		[]byte("\x00\x01\x02 not json at all"),
		[]byte(`null`),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := OpenCache(t.TempDir(), hash)
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok := c.Lookup(key)
		if !ok {
			return
		}
		if err := c.Store(key, res); err != nil {
			t.Fatalf("a result Lookup served cannot be stored: %v", err)
		}
		if again, ok := c.Lookup(key); !ok || again != res {
			t.Fatalf("a result Lookup served does not survive a store: %+v, then %+v (hit %v)", res, again, ok)
		}
	})
}
