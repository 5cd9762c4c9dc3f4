package advisor

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// DefaultCacheDir is where cmd/advisord and the thin clients persist
// evaluated cells between processes.
const DefaultCacheDir = ".advisorcache"

// cacheSchema versions the on-disk entry layout itself, independent of
// the engine hash: bump it when the entry struct changes shape.
const cacheSchema = 1

// Cache is the persistent result store: one JSON file per evaluated
// query cell, named by the hash of its canonical key. Every entry embeds
// the engine hash it was computed under; entries from another engine
// generation (or corrupted files, or hash-collision strangers) read as
// misses, never as wrong answers. Writes go through a temp-file rename
// so a crashed writer cannot leave a torn entry behind.
//
// Cache itself is stateless between calls (the filesystem is the state),
// so it needs no mutex; concurrent lookups and stores are safe because
// renames are atomic and read-side validation rejects partial files.
type Cache struct {
	dir        string
	engineHash string
}

// cacheEntry is the on-disk record.
type cacheEntry struct {
	Schema     int    `json:"schema"`
	EngineHash string `json:"engine_hash"`
	Key        string `json:"key"`
	Result     Result `json:"result"`
}

// OpenCache returns a cache rooted at dir, keyed under the given engine
// hash. The directory is created lazily on first store, so a read-only
// workload never litters the tree.
func OpenCache(dir, engineHash string) *Cache {
	return &Cache{dir: dir, engineHash: engineHash}
}

// path maps a canonical query key to its entry file.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])[:24]+".json")
}

// Lookup returns the cached result for a canonical key, if a valid entry
// of this engine generation exists. Unreadable, corrupted, stale-schema,
// stale-hash and mismatched-key entries all report a plain miss.
func (c *Cache) Lookup(key string) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return Result{}, false
	}
	var entry cacheEntry
	if err := json.Unmarshal(data, &entry); err != nil {
		return Result{}, false
	}
	if entry.Schema != cacheSchema || entry.EngineHash != c.engineHash || entry.Key != key {
		return Result{}, false
	}
	return entry.Result, true
}

// Store persists one evaluated cell. A store failure degrades the cache
// to a smaller one, nothing worse, so callers surface the error as a
// counter rather than failing the query.
func (c *Cache) Store(key string, res Result) error {
	if c == nil {
		return nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("advisor: create cache dir: %w", err)
	}
	data, err := json.MarshalIndent(cacheEntry{
		Schema:     cacheSchema,
		EngineHash: c.engineHash,
		Key:        key,
		Result:     res,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("advisor: encode cache entry: %w", err)
	}
	final := c.path(key)
	tmp, err := os.CreateTemp(c.dir, "entry-*.tmp")
	if err != nil {
		return fmt.Errorf("advisor: create cache temp: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("advisor: write cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("advisor: close cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("advisor: publish cache entry: %w", err)
	}
	return nil
}
