package tiering

import (
	"slices"

	"repro/internal/heat"
)

// forecastPolicy plans from the forecaster chain's *predicted* next-epoch
// heat instead of the measured one, and is the only dynamic policy that
// leaves the landing tier alone: new blocks land wherever the placement
// puts them, and the policy selectively promotes the blocks worth the
// migration cost. Two screens gate a promotion:
//
//   - The predicted heat must classify at or above promoteClass — a
//     block has to be forecast at least warm, under sustained reads,
//     before DRAM capacity is spent on it.
//   - The predicted write heat must stay strictly below writeHeatMax. A
//     write-churned block (lda's Gibbs-sweep state, rewritten every
//     superstep) is predicted to be rewritten again; promoting it buys
//     one cheap read epoch and then pays the demotion's XPLine-amplified
//     write — the exact mechanism behind the watermark policy's lda
//     regression. Screening on predicted writes keeps such blocks on
//     DCPM, where the rewrite lands anyway. The bound is exclusive so
//     that at the default decay a block put in the just-ended epoch
//     (write heat exactly decayFactor) is already screened.
//
// Demotions mirror the screens: fast blocks predicted cold (class 0) are
// evacuated coldest-first, and occupancy above the high watermark drains
// to the low one. The engine rate-limits everything through the mover.
type forecastPolicy struct{}

func (forecastPolicy) Name() string { return string(Forecast) }

func (forecastPolicy) Plan(cfg Config, v View) []Move {
	bounds := heat.DefaultBoundaries()
	high := int64(float64(cfg.FastBudgetBytes) * highWaterFrac)
	low := int64(float64(cfg.FastBudgetBytes) * lowWaterFrac)
	fastUsed := v.FastUsed
	moves := v.noMoves()

	fast := v.candidates(cfg.Fast)
	slices.SortStableFunc(fast, predictedColdestFirst)
	draining := fastUsed > high
	for _, b := range fast {
		// Classification is monotone in heat, so the predicted-cold
		// blocks form a prefix of the coldest-first order.
		if heat.Class(bounds, b.Predicted) > 0 && !(draining && fastUsed > low) {
			break
		}
		moves = append(moves, Move{ID: b.ID, Bytes: b.Bytes, From: cfg.Fast, To: cfg.Slow})
		fastUsed -= b.Bytes
	}

	slow := v.candidates(cfg.Slow)
	slices.SortStableFunc(slow, predictedHottestFirst)
	for _, b := range slow {
		if heat.Class(bounds, b.Predicted) < cfg.promoteClass {
			break // hottest-first: everything after is predicted colder
		}
		if b.Write >= writeHeatMax {
			continue // write-churned: the next rewrite lands on DCPM anyway
		}
		if fastUsed+b.Bytes > high {
			continue // no headroom; a smaller hot block may still fit
		}
		moves = append(moves, Move{ID: b.ID, Bytes: b.Bytes, From: cfg.Slow, To: cfg.Fast})
		fastUsed += b.Bytes
	}
	return moves
}
