package tiering

import (
	"slices"

	"repro/internal/heat"
)

// agePolicy is memtier's idle-page discipline on the simulator's epoch
// clock. It expects the idle-age tracker (heat == 1/(1+idleAge)) and
// plans:
//
//   - Demotions: every fast block idle for at least maxIdleEpochs,
//     oldest first; and, when fast occupancy is above the high
//     watermark, further coldest-first demotions down to the low
//     watermark (the capacity backstop the watermark policy provides).
//   - Promotions: slow blocks touched during the epoch that just ended,
//     in block-id order, as long as they fit under the high watermark.
//     The tracker ticks before planning, so such blocks read age 1 at
//     plan time (age 0 is unobservable then).
//
// Plans are deliberately unthrottled — the engine feeds them through the
// per-executor mover, whose per-epoch budgets spread the work out.
type agePolicy struct{}

func (agePolicy) Name() string { return string(Age) }

func (agePolicy) Plan(cfg Config, v View) []Move {
	high := int64(float64(cfg.FastBudgetBytes) * highWaterFrac)
	low := int64(float64(cfg.FastBudgetBytes) * lowWaterFrac)
	// The idle cutoff on the heat scale: HeatForAge is strictly
	// decreasing, so "idle >= maxIdleEpochs" is exactly "heat <= cutoff".
	idleCutoff := heat.HeatForAge(int64(cfg.maxIdleEpochs))
	fastUsed := v.FastUsed
	moves := v.noMoves()

	fast := v.candidates(cfg.Fast)
	slices.SortStableFunc(fast, coldestFirst)
	draining := fastUsed > high
	for _, b := range fast {
		// Coldest-first means the idle blocks form a prefix; past it,
		// only the over-budget drain keeps demoting.
		if b.Heat > idleCutoff && !(draining && fastUsed > low) {
			break
		}
		moves = append(moves, Move{ID: b.ID, Bytes: b.Bytes, From: cfg.Fast, To: cfg.Slow})
		fastUsed -= b.Bytes
	}

	freshHeat := heat.HeatForAge(1)
	for _, b := range v.candidates(cfg.Slow) {
		if b.Heat < freshHeat {
			continue // not touched this epoch
		}
		if fastUsed+b.Bytes > high {
			continue // no headroom; a smaller fresh block may still fit
		}
		moves = append(moves, Move{ID: b.ID, Bytes: b.Bytes, From: cfg.Slow, To: cfg.Fast})
		fastUsed += b.Bytes
	}
	return moves
}
