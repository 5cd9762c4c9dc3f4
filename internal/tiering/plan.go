package tiering

import "repro/internal/sim"

// PlannedMove is one recorded migration: which executor moved which
// block, how many bytes, and between which tiers.
type PlannedMove struct {
	Exec int
	Move
}

// EpochPlan records the moves of one epoch tick, in the order they were
// planned (executor slot order, plan order within an executor).
type EpochPlan struct {
	Epoch int
	At    sim.Time
	Moves []PlannedMove
}
