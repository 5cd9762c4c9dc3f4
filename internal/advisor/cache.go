package advisor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// DefaultCacheDir is where cmd/advisord and the thin clients persist
// evaluated cells between processes.
const DefaultCacheDir = ".advisorcache"

// cacheSchema versions the byte layout of an entry file, and nothing
// else: the shape of Result is part of the engine hash (resultShape), so
// only a change to the framing or to how a leaf is encoded bumps it.
// Files of another schema — the JSON entries of schema 1 among them —
// are misses that the next store overwrites.
const cacheSchema = 2

// An entry file is
//
//	magic(4) · schema(2) · CRC-32C of everything after it(4) ·
//	len(2)+engine hash · len(2)+key · len(4)+record · body
//
// little-endian throughout. The body is the rest of the file.
const (
	cacheMagic  = "ADVC"
	headerBytes = len(cacheMagic) + 2 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// cell is one evaluated query in the two forms a reader wants, rendered
// once when the cell is computed: record is the binary encoding of the
// Result (recordCodec), which in-process callers decode, and body is the
// indented JSON document /v1/eval answers, which the server writes
// verbatim. body is nil when encoding/json cannot render the result
// (NaN or Inf); such a cell is never stored.
type cell struct {
	record []byte
	body   []byte
}

// newCell encodes a freshly computed result. The error reports a result
// with a string past its length prefix, which has no record at all.
func newCell(res Result) (cell, error) {
	record, err := appendResult(nil, res)
	if err != nil {
		return cell{}, err
	}
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		// NaN or Inf: answerable in process, not storable.
		return cell{record: record}, nil
	}
	return cell{record: record, body: append(body, '\n')}, nil
}

// result decodes the cell's record.
func (c cell) result() (Result, error) {
	res, ok := decodeResult(c.record)
	if !ok {
		return Result{}, errors.New("advisor: malformed result record")
	}
	return res, nil
}

// Cache is the persistent result store: one file per evaluated query
// cell, named by the hash of its canonical key. Every entry embeds the
// engine hash it was computed under and a checksum of its contents;
// entries from another engine generation (or corrupted files, or
// hash-collision strangers) read as misses, never as wrong answers.
// Writes go through a temp-file rename so a crashed writer cannot leave
// a torn entry behind.
//
// Cache itself is stateless between calls (the filesystem is the state),
// so it needs no mutex; concurrent lookups and stores are safe because
// renames are atomic and read-side validation rejects partial files.
type Cache struct {
	dir        string
	engineHash string
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
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])[:24]+".bin")
}

// Lookup returns the cached result for a canonical key, if a valid entry
// of this engine generation exists. Unreadable, corrupted, stale-schema,
// stale-hash and mismatched-key entries all report a plain miss.
func (c *Cache) Lookup(key string) (Result, bool) {
	entry, ok := c.lookup(key)
	if !ok {
		return Result{}, false
	}
	return decodeResult(entry.record)
}

// lookup reads and validates the entry file for key: magic, schema,
// checksum, engine hash, key, a record that decodes and a body that is
// there. The checksum is what stands between a flipped bit and a wrong
// answer; it does not authenticate — a file forged with a matching
// checksum is served as written.
func (c *Cache) lookup(key string) (cell, bool) {
	if c == nil {
		return cell{}, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil || len(data) < headerBytes || string(data[:len(cacheMagic)]) != cacheMagic {
		return cell{}, false
	}
	if binary.LittleEndian.Uint16(data[len(cacheMagic):]) != cacheSchema {
		return cell{}, false
	}
	rest := data[headerBytes:]
	if binary.LittleEndian.Uint32(data[len(cacheMagic)+2:]) != crc32.Checksum(rest, castagnoli) {
		return cell{}, false
	}
	hash, rest, ok := cutPrefixed(rest, 2)
	if !ok || string(hash) != c.engineHash {
		return cell{}, false
	}
	entryKey, rest, ok := cutPrefixed(rest, 2)
	if !ok || string(entryKey) != key {
		return cell{}, false
	}
	record, body, ok := cutPrefixed(rest, 4)
	if !ok || len(body) == 0 {
		return cell{}, false
	}
	if _, ok := decodeResult(record); !ok {
		return cell{}, false
	}
	return cell{record: record, body: body}, true
}

// cutPrefixed splits data after a length-prefixed section whose length
// field is width bytes (2 or 4); ok is false when data is too short.
func cutPrefixed(data []byte, width int) (section, rest []byte, ok bool) {
	if len(data) < width {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint16(data))
	if width == 4 {
		n = int(binary.LittleEndian.Uint32(data))
	}
	data = data[width:]
	if n > len(data) {
		return nil, nil, false
	}
	return data[:n], data[n:], true
}

// Store persists one evaluated cell. A store failure degrades the cache
// to a smaller one, nothing worse, so callers surface the error as a
// counter rather than failing the query.
func (c *Cache) Store(key string, res Result) error {
	entry, err := newCell(res)
	if err != nil {
		return err
	}
	return c.store(key, entry)
}

// store writes the entry file for key; a cell without a body is refused.
func (c *Cache) store(key string, entry cell) error {
	if c == nil {
		return nil
	}
	if len(c.engineHash) > math.MaxUint16 || len(key) > math.MaxUint16 {
		return fmt.Errorf("advisor: cache entry: engine hash (%d bytes) or key (%d bytes) exceeds %d", len(c.engineHash), len(key), math.MaxUint16)
	}
	if len(entry.body) == 0 {
		return errors.New("advisor: cache entry: no rendered body")
	}
	data := make([]byte, headerBytes, headerBytes+2+len(c.engineHash)+2+len(key)+4+len(entry.record)+len(entry.body))
	copy(data, cacheMagic)
	binary.LittleEndian.PutUint16(data[len(cacheMagic):], cacheSchema)
	data = binary.LittleEndian.AppendUint16(data, uint16(len(c.engineHash)))
	data = append(data, c.engineHash...)
	data = binary.LittleEndian.AppendUint16(data, uint16(len(key)))
	data = append(data, key...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(entry.record)))
	data = append(data, entry.record...)
	data = append(data, entry.body...)
	binary.LittleEndian.PutUint32(data[len(cacheMagic)+2:], crc32.Checksum(data[headerBytes:], castagnoli))

	tmp, err := os.CreateTemp(c.dir, "entry-*.tmp")
	if errors.Is(err, fs.ErrNotExist) {
		// First store into this directory: create it, then try again.
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return fmt.Errorf("advisor: create cache dir: %w", err)
		}
		tmp, err = os.CreateTemp(c.dir, "entry-*.tmp")
	}
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
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("advisor: publish cache entry: %w", err)
	}
	return nil
}

// recordCodec walks a Result's leaves in one fixed order; the same walk
// (result) encodes and decodes, so the two cannot disagree about the
// order, and TestRecordCodecCoversEveryLeaf fails when a leaf is missing
// from it. Integers and math.Float64bits are 8 bytes little-endian,
// strings are a 2-byte length and their bytes.
type recordCodec struct {
	buf      []byte // encoding: the record so far; decoding: the input left
	decoding bool
	err      error // first failure; later leaves are skipped
}

var (
	errRecordShort  = errors.New("advisor: result record is truncated")
	errRecordString = fmt.Errorf("advisor: result record: a string exceeds %d bytes", math.MaxUint16)
)

func (c *recordCodec) i64(v *int64) {
	switch {
	case c.err != nil:
	case !c.decoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	case len(c.buf) < 8:
		c.err = errRecordShort
	default:
		*v = int64(binary.LittleEndian.Uint64(c.buf))
		c.buf = c.buf[8:]
	}
}

func (c *recordCodec) int(v *int) {
	w := int64(*v)
	c.i64(&w)
	*v = int(w)
}

func (c *recordCodec) f64(v *float64) {
	w := int64(math.Float64bits(*v))
	c.i64(&w)
	*v = math.Float64frombits(uint64(w))
}

func (c *recordCodec) str(v *string) {
	switch {
	case c.err != nil:
	case !c.decoding:
		if len(*v) > math.MaxUint16 {
			c.err = errRecordString
			return
		}
		c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(len(*v)))
		c.buf = append(c.buf, *v...)
	default:
		s, rest, ok := cutPrefixed(c.buf, 2)
		if !ok {
			c.err = errRecordShort
			return
		}
		*v, c.buf = string(s), rest
	}
}

// result visits every leaf of r, in the record's order.
func (c *recordCodec) result(r *Result) {
	c.str(&r.Query.Workload)
	c.str(&r.Query.Size)
	c.str(&r.Query.Placement)
	c.str(&r.Query.Policy)
	c.i64(&r.Query.Seed)
	c.i64(&r.DurationNS)
	c.f64(&r.Seconds)

	m := &r.Metrics
	c.i64((*int64)(&m.Duration))
	c.f64(&m.CPUNS)
	c.f64(&m.StallNS)
	c.i64(&m.MediaReads)
	c.i64(&m.MediaWrites)
	c.i64(&m.MediaReadBytes)
	c.i64(&m.MediaWriteBytes)
	c.i64(&m.ReadBytes)
	c.i64(&m.WriteBytes)
	c.int(&m.Stages)
	c.int(&m.Tasks)
	c.i64(&m.ShuffleRead)
	c.i64(&m.CacheHits)
	c.i64(&m.CacheMisses)
	c.int(&m.MaxSharers)
	c.f64(&m.EnergyJ)

	c.int(&r.Summary.Records)
	c.f64(&r.Summary.Metric)
	c.str(&r.Summary.Note)

	n := &r.NVMCounters
	c.i64(&n.ReadOps)
	c.i64(&n.WriteOps)
	c.i64(&n.ReadBytes)
	c.i64(&n.WriteBytes)
	c.i64(&n.MediaReads)
	c.i64(&n.MediaWrites)
	c.i64(&n.MediaReadBytes)
	c.i64(&n.MediaWriteBytes)
	c.f64(&r.NVMShare)
}

// appendResult appends res's record to dst.
func appendResult(dst []byte, res Result) ([]byte, error) {
	c := recordCodec{buf: dst}
	c.result(&res)
	return c.buf, c.err
}

// decodeResult decodes a record; ok is false when it is short, or when
// bytes are left over after the last leaf.
func decodeResult(record []byte) (res Result, ok bool) {
	c := recordCodec{buf: record, decoding: true}
	c.result(&res)
	if c.err != nil || len(c.buf) != 0 {
		return Result{}, false
	}
	return res, true
}
