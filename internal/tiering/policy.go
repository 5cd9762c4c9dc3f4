package tiering

import (
	"fmt"
	"slices"

	"repro/internal/blockmgr"
	"repro/internal/heat"
	"repro/internal/memsim"
)

// BlockHeat pairs one resident block with its tracker heat. Heat is the
// tracker's current hotness (decayed access count, or 1/(1+idleAge) for
// the idle tracker). Predicted is the forecaster chain's next-epoch
// prediction — equal to Heat when the policy does not forecast. Write is
// the write component the forecast policy screens on (the predicted
// write heat when forecasting, the tracker's current one otherwise).
type BlockHeat struct {
	blockmgr.BlockInfo
	Heat      float64
	Predicted float64
	Write     float64
}

// Move is one planned block migration on one executor — the mover
// queue's own currency, so a plan passes through rate limiting as it is.
type Move = heat.MoveRequest

// View is the frozen per-executor state a policy plans over at an epoch
// tick: the resident blocks in block-id order with their decayed heat,
// the bytes currently on the fast tier, the epoch's virtual duration and
// the tier specs (for bandwidth budgets). Policies are pure functions of
// a View and the Config, which is what makes plans deterministic and
// independently replayable.
type View struct {
	Blocks       []BlockHeat // ordered by block id
	FastUsed     int64       // bytes resident on Config.Fast
	EpochSeconds float64     // virtual seconds since the previous tick
	Specs        [memsim.NumTiers]memsim.TierSpec
	// scratch lends the policy its executor's candidate and move
	// buffers; nil in a view built by hand, whose plans allocate.
	scratch *planScratch
}

// planScratch is one executor's reusable planning buffers: a candidate
// list (one tier's blocks, sorted in place) and a move list. The engine
// grows both to the view's block count before planning — no policy
// plans more candidates or moves than there are blocks — so a policy
// appending into them never reallocates.
type planScratch struct {
	cands []BlockHeat
	moves []Move
}

// grow empties both buffers and makes room for n entries in each.
func (s *planScratch) grow(n int) {
	s.cands = slices.Grow(s.cands[:0], n)
	s.moves = slices.Grow(s.moves[:0], n)
}

// candidates returns the view's blocks resident on t, in id order: in the
// scratch candidate buffer when the view has one, overwriting the
// previous candidates, and in a fresh slice otherwise.
func (v View) candidates(t memsim.TierID) []BlockHeat {
	var dst []BlockHeat
	if v.scratch != nil {
		dst = v.scratch.cands[:0]
	}
	return onTier(dst, v.Blocks, t)
}

// noMoves returns an empty plan to append to: the scratch move buffer
// when the view has one, nil otherwise.
func (v View) noMoves() []Move {
	if v.scratch == nil {
		return nil
	}
	return v.scratch.moves[:0]
}

// Policy plans migrations for one executor at an epoch tick. Plan must
// not mutate the view; the engine charges and applies the moves. A plan
// may live in the view's scratch, so it is valid until the executor's
// next plan.
type Policy interface {
	Name() string
	Plan(cfg Config, v View) []Move
}

// NewPolicy returns the policy implementation for a validated config.
func NewPolicy(cfg Config) Policy {
	switch cfg.Policy {
	case Static:
		return staticPolicy{}
	case Watermark:
		return watermarkPolicy{}
	case BandwidthAware:
		return bandwidthPolicy{}
	case Age:
		return agePolicy{}
	case Forecast:
		return forecastPolicy{}
	}
	panic(fmt.Sprintf("tiering: unknown policy %q", cfg.Policy))
}

// staticPolicy never moves anything.
type staticPolicy struct{}

func (staticPolicy) Name() string             { return string(Static) }
func (staticPolicy) Plan(Config, View) []Move { return nil }

// watermarkPolicy keeps fast-tier occupancy inside the watermark band.
type watermarkPolicy struct{}

func (watermarkPolicy) Name() string                   { return string(Watermark) }
func (watermarkPolicy) Plan(cfg Config, v View) []Move { return planWatermark(cfg, v) }

// planWatermark demotes coldest-first above the high watermark and
// promotes hottest-first below the low watermark. Candidates are drawn
// from the id-ordered view and sorted stably by heat, so equal-heat ties
// break by block id — the plan is identical across runs by construction.
func planWatermark(cfg Config, v View) []Move {
	high := int64(float64(cfg.FastBudgetBytes) * highWaterFrac)
	low := int64(float64(cfg.FastBudgetBytes) * lowWaterFrac)
	fastUsed := v.FastUsed

	if fastUsed > high {
		cands := v.candidates(cfg.Fast)
		slices.SortStableFunc(cands, coldestFirst)
		moves := v.noMoves()
		for _, b := range cands {
			if fastUsed <= low {
				break
			}
			moves = append(moves, Move{ID: b.ID, Bytes: b.Bytes, From: cfg.Fast, To: cfg.Slow})
			fastUsed -= b.Bytes
		}
		return moves
	}

	if fastUsed < low {
		cands := v.candidates(cfg.Slow)
		slices.SortStableFunc(cands, hottestFirst)
		moves := v.noMoves()
		for _, b := range cands {
			if b.Heat < minHeat {
				break // sorted by heat: everything after is colder
			}
			if fastUsed+b.Bytes > high {
				continue // too big for the remaining headroom; try smaller
			}
			moves = append(moves, Move{ID: b.ID, Bytes: b.Bytes, From: cfg.Slow, To: cfg.Fast})
			fastUsed += b.Bytes
		}
		return moves
	}
	return nil
}

// bandwidthPolicy is the watermark plan truncated to a per-destination
// migration byte budget for the epoch.
type bandwidthPolicy struct{}

func (bandwidthPolicy) Name() string { return string(BandwidthAware) }

func (bandwidthPolicy) Plan(cfg Config, v View) []Move {
	moves := planWatermark(cfg, v)
	if len(moves) == 0 {
		return nil
	}
	var remaining [memsim.NumTiers]float64
	for _, id := range memsim.AllTiers() {
		remaining[id] = cfg.migrationBWFrac * v.Specs[id].BandwidthBytes * v.EpochSeconds
	}
	// Truncate rather than skip: the plan is priority-ordered (coldest
	// demotions / hottest promotions first) and skipping ahead to smaller
	// blocks would subvert that order. What is kept is a prefix.
	for i, m := range moves {
		if float64(m.Bytes) > remaining[m.To] {
			return moves[:i]
		}
		remaining[m.To] -= float64(m.Bytes)
	}
	return moves
}

// onTier appends the id-ordered block view's blocks on one tier to dst,
// preserving order.
func onTier(dst, blocks []BlockHeat, t memsim.TierID) []BlockHeat {
	for _, b := range blocks {
		if b.Tier == t {
			dst = append(dst, b)
		}
	}
	return dst
}

// The candidate orders. Every one is a stable sort of an id-ordered
// list, so equal keys break by block id.
func coldestFirst(a, b BlockHeat) int          { return heatOrder(a.Heat, b.Heat) }
func hottestFirst(a, b BlockHeat) int          { return heatOrder(b.Heat, a.Heat) }
func predictedColdestFirst(a, b BlockHeat) int { return heatOrder(a.Predicted, b.Predicted) }
func predictedHottestFirst(a, b BlockHeat) int { return heatOrder(b.Predicted, a.Predicted) }

// heatOrder compares two heats with < alone, not cmp.Compare: two blocks
// tie exactly when neither heat is strictly below the other.
func heatOrder(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}
