package memsim

// Op distinguishes read from write accesses.
type Op int

const (
	// Read is a load from memory.
	Read Op = iota
	// Write is a store to memory.
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Pattern describes the spatial locality of a burst of accesses. The timing
// model hides most per-line latency behind hardware prefetching for
// sequential streams, while random accesses pay the full loaded latency per
// line. This is what makes streaming workloads (sort) far less
// latency-sensitive than pointer-chasing ones (pagerank joins, shuffle hash
// lookups), reproducing the paper's per-application sensitivity spread.
type Pattern int

const (
	// Sequential access: large strided scans, shuffle file streaming.
	Sequential Pattern = iota
	// Random access: hash-table probes, graph traversal, index lookups.
	Random
)

// String returns "seq" or "rand".
func (p Pattern) String() string {
	if p == Random {
		return "rand"
	}
	return "seq"
}

// LatencyExposure is the fraction of per-line latency that is NOT hidden by
// prefetching/MLP for the given pattern.
func (p Pattern) LatencyExposure() float64 {
	if p == Random {
		return 1.0
	}
	return 0.08
}

// Counters accumulate the tier's observable activity, mirroring what the
// paper reads from ipmctl (media reads/writes) plus byte-level totals.
type Counters struct {
	// ReadOps / WriteOps are logical access bursts issued by software.
	ReadOps  int64
	WriteOps int64
	// ReadBytes / WriteBytes are logical bytes requested by software.
	ReadBytes  int64
	WriteBytes int64
	// MediaReads / MediaWrites are device-granularity line transfers
	// (64 B for DRAM, 256 B for DCPM), i.e. what ipmctl reports.
	MediaReads  int64
	MediaWrites int64
	// MediaReadBytes / MediaWriteBytes include write amplification from
	// sub-line stores on DCPM.
	MediaReadBytes  int64
	MediaWriteBytes int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.ReadOps += other.ReadOps
	c.WriteOps += other.WriteOps
	c.ReadBytes += other.ReadBytes
	c.WriteBytes += other.WriteBytes
	c.MediaReads += other.MediaReads
	c.MediaWrites += other.MediaWrites
	c.MediaReadBytes += other.MediaReadBytes
	c.MediaWriteBytes += other.MediaWriteBytes
}

// Sub returns c - other, useful for per-run deltas.
func (c Counters) Sub(other Counters) Counters {
	return Counters{
		ReadOps:         c.ReadOps - other.ReadOps,
		WriteOps:        c.WriteOps - other.WriteOps,
		ReadBytes:       c.ReadBytes - other.ReadBytes,
		WriteBytes:      c.WriteBytes - other.WriteBytes,
		MediaReads:      c.MediaReads - other.MediaReads,
		MediaWrites:     c.MediaWrites - other.MediaWrites,
		MediaReadBytes:  c.MediaReadBytes - other.MediaReadBytes,
		MediaWriteBytes: c.MediaWriteBytes - other.MediaWriteBytes,
	}
}
