package memsim

// CopyCounters is the shuffle-copy ledger of one tier: how many map-output
// chunk reads the shuffle served by reference (the reader and writer were
// co-resident, so no bytes crossed the tier again) versus by copy (a remote
// reader had to pull the chunk across). The paper's 256B XPLine write
// amplification makes every avoided copy on DCPM disproportionately
// valuable, so LocalBytes on a DCPM tier is exactly the "copy bytes saved"
// a Sparkle-style shared-pool shuffle buys.
//
// The ledger is observational: it never feeds virtual time, energy or the
// media counters. Existing experiment output is byte-identical with the
// ledger present or absent; the copy report reads it separately.
type CopyCounters struct {
	// LocalChunks / LocalBytes count chunk reads served by reference —
	// the reduce task ran on the executor that wrote the chunk, so the
	// bytes were NOT copied again.
	LocalChunks int64
	LocalBytes  int64
	// RemoteChunks / RemoteBytes count chunk reads that crossed
	// executors and paid the full copy.
	RemoteChunks int64
	RemoteBytes  int64
}

// Add accumulates other into c.
func (c *CopyCounters) Add(other CopyCounters) {
	c.LocalChunks += other.LocalChunks
	c.LocalBytes += other.LocalBytes
	c.RemoteChunks += other.RemoteChunks
	c.RemoteBytes += other.RemoteBytes
}

// TotalChunks is the number of chunk reads observed on the tier.
func (c CopyCounters) TotalChunks() int64 { return c.LocalChunks + c.RemoteChunks }

// TotalBytes is the total chunk bytes read, by reference or by copy.
func (c CopyCounters) TotalBytes() int64 { return c.LocalBytes + c.RemoteBytes }

// SavedFraction is the fraction of chunk bytes served by reference; 0 when
// the tier saw no chunk traffic.
func (c CopyCounters) SavedFraction() float64 {
	t := c.TotalBytes()
	if t == 0 {
		return 0
	}
	return float64(c.LocalBytes) / float64(t)
}

// Copies returns a snapshot of the tier's shuffle-copy ledger.
func (t *Tier) Copies() CopyCounters { return t.copies }

// MergeCopies folds a task-local copy delta into the tier. Like counter
// merging it is commutative, and the scheduler merges in partition order
// anyway.
func (t *Tier) MergeCopies(d CopyCounters) { t.copies.Add(d) }

// CopySnapshot returns the shuffle-copy ledgers of all tiers.
func (s *System) CopySnapshot() [NumTiers]CopyCounters {
	var out [NumTiers]CopyCounters
	for i, t := range s.tiers {
		out[i] = t.Copies()
	}
	return out
}
