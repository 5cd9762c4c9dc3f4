// Package tiering implements online hotness-driven migration of cached
// RDD blocks across the DRAM/DCPM memory tiers — the direction the
// paper's §IV-G points at when it asks for "the optimal memory tier per
// access type", taken one step further: instead of a static per-category
// placement, a migration policy observes per-block access frequency and
// recency and moves individual blocks between a small fast tier (DRAM)
// and a large slow tier (DCPM) while the application runs.
//
// The subsystem has four parts:
//
//   - A heat.Tracker per executor, fed by the block manager's Observer
//     hook: pluggable hotness accounting (decayed access counts or
//     idle-age epochs, the cri-resource-manager memtier trackers),
//     snapshotted into a bounded heat.History and bucketed into
//     heat.Heatmap histograms at every epoch tick.
//   - A Policy that, at each epoch, plans migrations from a frozen view
//     of one executor's blocks, their heat and — for the forecast
//     policy — their chained heat.Forecaster prediction. Policies are
//     pure functions of the view, so plans are deterministic.
//   - An Engine that owns the trackers, asks the policy for plans at
//     epoch ticks (the scheduler calls Tick between stages), rate-limits
//     them through a per-executor heat.Mover queue, charges the real
//     data movement to the memory system through the staged task-context
//     path, and applies residency changes to the block managers.
//   - A recorded EpochPlan history that the package's tests re-price
//     independently, pinning the engine's accounting.
//
// Migration is never free: a demotion streams the block out of the fast
// tier and writes it to DCPM at 256 B XPLine granularity (write
// amplification included), pays a fixed per-block CPU cost, and occupies
// a simulated migration task that advances virtual time. Policies can
// therefore lose — exactly the trade-off the paper's bandwidth and
// write-asymmetry takeaways predict.
package tiering

import (
	"fmt"

	"repro/internal/heat"
	"repro/internal/memsim"
)

// PolicyKind names a migration policy.
type PolicyKind string

const (
	// Static never migrates and leaves the landing tier untouched: the
	// pre-tiering behaviour, kept as the regression baseline. A run with
	// the static policy is byte-identical to one with no engine at all.
	Static PolicyKind = "static"
	// Watermark lands new blocks on the fast tier and keeps its
	// occupancy between a low and a high watermark: above the high mark
	// the coldest blocks are demoted until the low mark is reached;
	// below the low mark the hottest slow blocks are promoted back. The
	// cri-resource-manager memtier discipline.
	Watermark PolicyKind = "watermark"
	// BandwidthAware is Watermark with a per-epoch migration budget: the
	// bytes moved toward each destination tier are capped at a fraction
	// of that tier's peak bandwidth times the epoch's virtual duration,
	// so migration traffic cannot crowd out the application's.
	BandwidthAware PolicyKind = "bandwidth-aware"
	// Age lands new blocks on the fast tier and demotes by idle age
	// (memtier's idle-page discipline): a fast block untouched for
	// maxIdleEpochs epochs is demoted, blocks touched in the current
	// epoch are promoted back, and the whole plan is rate-limited by the
	// mover's per-epoch budgets.
	Age PolicyKind = "age"
	// Forecast leaves the landing tier alone (new blocks land wherever
	// the placement puts them) and promotes only blocks whose *predicted*
	// next-epoch heat — the forecaster chain's output — classifies hot,
	// skipping write-churned blocks whose next rewrite would land them
	// back on the landing tier anyway. Rate-limited by the mover.
	Forecast PolicyKind = "forecast"
)

// AllPolicies lists the policy kinds in sweep order.
func AllPolicies() []PolicyKind {
	return []PolicyKind{Static, Watermark, BandwidthAware, Age, Forecast}
}

// Valid reports whether the kind is one of the defined policies.
func (p PolicyKind) Valid() bool {
	switch p {
	case Static, Watermark, BandwidthAware, Age, Forecast:
		return true
	}
	return false
}

// The calibration every policy shares: no caller varies it, so these are
// constants and not Config fields. Likewise the heat classes are always
// heat.DefaultBoundaries() and the forecast policy's chain is always
// heat.AllForecasters() (trend, then phase).
const (
	// highWaterFrac and lowWaterFrac position the watermark band as
	// fractions of FastBudgetBytes.
	highWaterFrac = 0.9
	lowWaterFrac  = 0.7
	// minHeat is the minimum heat a slow block needs to be promoted;
	// blocks colder than this stay put even when fast capacity is free.
	minHeat = 0.25
	// decayFactor multiplies every block's heat at each epoch tick, in
	// [0, 1): 0 keeps only the last epoch's accesses, values near 1
	// remember long histories.
	decayFactor = 0.5
	// historyEpochs bounds the per-executor ring of heat snapshots the
	// forecasters read.
	historyEpochs = 12
	// writeHeatMax is the forecast policy's write-churn cutoff: only
	// blocks whose predicted write heat stays strictly below it are ever
	// promoted — a rewrite would land them back on the landing tier,
	// wasting the promotion (the lda failure mode of the watermark
	// policy). A single put one epoch ago leaves write heat exactly
	// decayFactor, so 0.5 reads as "not written within the last epoch".
	writeHeatMax = 0.5
)

// Config parameterizes the tiering engine. A caller chooses the policy,
// the tier pair and the fast-tier budget; the calibration beneath them is
// DefaultConfig's, so build a Config there and not as a literal.
type Config struct {
	// Policy selects the migration policy.
	Policy PolicyKind

	// Fast and Slow are the two tiers dynamic policies move blocks
	// between. Blocks land on Fast; cold blocks are demoted to Slow.
	Fast memsim.TierID
	Slow memsim.TierID

	// FastBudgetBytes is the per-executor byte budget cached blocks may
	// occupy on the fast tier — the knob the capacity sweep turns to
	// model a DRAM-constrained machine. Required (> 0) for dynamic
	// policies.
	FastBudgetBytes int64

	// migrationBWFrac caps, for the bandwidth-aware policy, the bytes
	// migrated toward a destination tier per epoch at this fraction of
	// the tier's peak bandwidth times the epoch's virtual duration.
	migrationBWFrac float64

	// maxIdleEpochs is the idle age at which the age policy demotes a
	// fast block: untouched for this many epochs means cold. Must be at
	// least 1 for the age policy.
	maxIdleEpochs int

	// moverBytesPerEpoch and moverMovesPerEpoch rate-limit the age and
	// forecast policies: each executor's mover queue emits at most this
	// many bytes and moves per epoch, deferring the backlog to later
	// epochs. Both must be positive for those policies.
	moverBytesPerEpoch int64
	moverMovesPerEpoch int

	// promoteClass is the minimum *predicted* heat class (index into the
	// classifier's classes, 0 = coldest) a slow block needs for the
	// forecast policy to promote it. The default is class 1 (warm):
	// under the 0.5 decay a block's steady-state heat equals its
	// per-epoch read rate approached from below, so demanding the hot
	// class would exclude even steady once-per-epoch readers.
	promoteClass int
}

// DefaultConfig returns the calibrated defaults for a policy: DRAM
// (Tier 0) over local DCPM (Tier 2), a 5% migration bandwidth budget and
// the mover's per-epoch limits. FastBudgetBytes is left zero — capacity is
// experiment-specific and must be set by the caller for dynamic policies.
func DefaultConfig(policy PolicyKind) Config {
	return Config{
		Policy:             policy,
		Fast:               memsim.Tier0,
		Slow:               memsim.Tier2,
		migrationBWFrac:    0.05,
		maxIdleEpochs:      2,
		moverBytesPerEpoch: 256 << 10,
		moverMovesPerEpoch: 64,
		promoteClass:       1,
	}
}

// Dynamic reports whether the policy ever migrates (everything except
// Static).
func (c Config) Dynamic() bool { return c.Policy != Static }

// UsesMover reports whether the policy's plans flow through the
// rate-limited mover queue.
func (c Config) UsesMover() bool { return c.Policy == Age || c.Policy == Forecast }

// RebindsLanding reports whether the engine rebinds the block managers'
// landing tier to the fast tier. The forecast policy deliberately does
// not: new blocks land wherever the placement puts them, and only
// predicted-hot, non-write-churned blocks earn a promotion.
func (c Config) RebindsLanding() bool { return c.Dynamic() && c.Policy != Forecast }

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if !c.Policy.Valid() {
		return fmt.Errorf("tiering: unknown policy %q", c.Policy)
	}
	if !c.Dynamic() {
		return nil
	}
	switch {
	case !c.Fast.Valid():
		return fmt.Errorf("tiering: invalid fast tier %d", c.Fast)
	case !c.Slow.Valid():
		return fmt.Errorf("tiering: invalid slow tier %d", c.Slow)
	case c.Fast == c.Slow:
		return fmt.Errorf("tiering: fast and slow tier are both %s", c.Fast)
	case c.FastBudgetBytes <= 0:
		return fmt.Errorf("tiering: dynamic policy %q needs FastBudgetBytes > 0", c.Policy)
	}
	if c.Policy == BandwidthAware && (c.migrationBWFrac <= 0 || c.migrationBWFrac > 1) {
		return fmt.Errorf("tiering: migration bandwidth fraction %v out of (0,1]", c.migrationBWFrac)
	}
	if c.UsesMover() {
		if c.moverBytesPerEpoch <= 0 || c.moverMovesPerEpoch <= 0 {
			return fmt.Errorf("tiering: policy %q needs positive mover budgets (bytes=%d moves=%d)",
				c.Policy, c.moverBytesPerEpoch, c.moverMovesPerEpoch)
		}
	}
	if c.Policy == Age && c.maxIdleEpochs < 1 {
		return fmt.Errorf("tiering: age policy needs maxIdleEpochs >= 1, got %d", c.maxIdleEpochs)
	}
	if c.Policy == Forecast {
		if classes := len(heat.DefaultBoundaries()) + 1; c.promoteClass < 0 || c.promoteClass >= classes {
			return fmt.Errorf("tiering: promoteClass %d out of [0,%d)", c.promoteClass, classes)
		}
	}
	return nil
}
