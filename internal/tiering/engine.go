package tiering

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/heat"
	"repro/internal/memsim"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// EpochHeatmap records one epoch's bucketed heat histogram across every
// live executor — the per-epoch evidence trail reports render when a
// policy's behaviour needs explaining.
type EpochHeatmap struct {
	Epoch int
	At    sim.Time
	Map   heat.Heatmap
}

// execState is the per-executor heat machinery: the tracker observing the
// block manager, the snapshot history the forecasters read, (for mover
// policies) the rate-limited migration queue, and the tick's scratch.
// All of it lives and dies with the executor's block manager —
// AttachExecutor rebuilds it when a crashed executor is replaced.
//
// The scratch is per executor, never shared across the engine: an
// executor's moves stay in its move buffer from its step of the tick
// until the residency flip at the tick's end, while later executors plan
// into theirs. Each buffer is refilled from zero length every tick and
// keeps its capacity, so a warm tick allocates nothing per block.
type execState struct {
	tracker heat.Tracker
	history *heat.History
	mover   *heat.Mover

	infos   []blockmgr.BlockInfo // the block manager's blocks, view's input
	blocks  []BlockHeat          // the planning view's Blocks
	scratch planScratch          // lent to the policy through the view
}

// Engine drives epoch-based block migration for one application. The
// scheduler calls Tick at stage boundaries (residency is frozen while a
// stage runs, which is what keeps parallel phase-1 byte-identical); each
// tick advances the hotness trackers, snapshots them into the forecast
// history and the epoch heatmap, asks the policy for a per-executor plan
// (forecasting policies plan on the predicted next epoch), rate-limits
// the plan through the mover queue, charges the migration traffic
// through the staged task-context path, simulates it as a migration
// stage that advances virtual time, and finally applies the residency
// changes. A tick that plans no moves costs zero virtual time, so a
// static-policy run is byte-identical to a run with no engine at all.
type Engine struct {
	cfg        Config
	policy     Policy
	pool       *executor.Pool
	sys        *memsim.System
	store      *shuffle.Store
	cost       executor.CostModel
	seed       int64
	reg        *telemetry.Registry
	classifier *heat.Classifier
	chain      *heat.Chain

	execs    []execState
	epoch    int
	lastTick sim.Time
	plans    []EpochPlan
	heatmaps []EpochHeatmap

	migratedBlocks int64
	migratedBytes  int64
	refusedMoves   int64
	migStallNS     float64
	migCounters    [memsim.NumTiers]memsim.Counters
	// retiredMovers totals the movers AttachExecutor replaced with a
	// crashed executor's slot, so the mover totals keep their work.
	retiredMovers heat.MoverStats

	// Names of the per-tier and per-class gauges, built once: tier and
	// class counts are fixed at construction.
	occupancyGauges   [memsim.NumTiers]string
	classBlocksGauges []string
	classBytesGauges  []string
}

// NewEngine builds an engine over an application's executor pool and
// attaches it: every live executor gets a fresh hotness tracker installed
// as its block manager's observer, and landing-rebinding policies move
// the landing tier to the fast tier (static and forecast leave the
// placement's landing tier untouched).
func NewEngine(cfg Config, pool *executor.Pool, store *shuffle.Store,
	cost executor.CostModel, seed int64) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	classifier, err := heat.NewClassifier(heat.DefaultBoundaries())
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		policy:     NewPolicy(cfg),
		pool:       pool,
		sys:        pool.System(),
		store:      store,
		cost:       cost,
		seed:       seed,
		classifier: classifier,
		execs:      make([]execState, pool.Size()),
	}
	if cfg.Policy == Forecast {
		if e.chain, err = heat.NewChain(heat.AllForecasters()); err != nil {
			return nil, err
		}
	}
	for _, t := range memsim.AllTiers() {
		e.occupancyGauges[t] = fmt.Sprintf("%stier%d", occupancyGauge, int(t))
	}
	for i := 0; i < classifier.Classes(); i++ {
		e.classBlocksGauges = append(e.classBlocksGauges, fmt.Sprintf("%sclass%d.blocks", heatmapGauge, i))
		e.classBytesGauges = append(e.classBytesGauges, fmt.Sprintf("%sclass%d.bytes", heatmapGauge, i))
	}
	for id := range e.execs {
		e.AttachExecutor(id)
	}
	return e, nil
}

// PolicyName returns the active policy's name.
func (e *Engine) PolicyName() string { return e.policy.Name() }

// SetRegistry wires the engine's gauges into a telemetry registry (nil
// disables gauge publishing).
func (e *Engine) SetRegistry(reg *telemetry.Registry) { e.reg = reg }

// AttachExecutor (re)binds the engine to one executor slot: a fresh
// tracker becomes the block manager's observer (with a fresh history and
// mover) and, for landing-rebinding policies, the landing tier is moved
// to the fast tier. Called for every slot at construction and again by
// the scheduler when a crashed executor is replaced with a fresh block
// manager.
func (e *Engine) AttachExecutor(id int) {
	// The age policy tracks idle age, everything else decayed access counts.
	var tr heat.Tracker = heat.NewAccessTracker(decayFactor)
	if e.cfg.Policy == Age {
		tr = heat.NewIdleTracker()
	}
	if old := e.execs[id].mover; old != nil {
		addMoverStats(&e.retiredMovers, old.Stats())
	}
	st := execState{tracker: tr, history: heat.NewHistory(historyEpochs)}
	if e.cfg.UsesMover() {
		st.mover = heat.NewMover(e.cfg.moverBytesPerEpoch, e.cfg.moverMovesPerEpoch)
	}
	e.execs[id] = st
	blocks := e.pool.Executors[id].Blocks
	blocks.SetObserver(tr)
	if e.cfg.RebindsLanding() {
		blocks.SetLandingTier(e.cfg.Fast)
	}
}

// Heatmaps returns the recorded per-epoch heat histograms, one per tick.
func (e *Engine) Heatmaps() []EpochHeatmap { return e.heatmaps }

// Epochs returns the number of ticks so far.
func (e *Engine) Epochs() int { return e.epoch }

// MigratedBlocks returns the total number of block moves applied.
func (e *Engine) MigratedBlocks() int64 { return e.migratedBlocks }

// MigratedBytes returns the total bytes moved between tiers.
func (e *Engine) MigratedBytes() int64 { return e.migratedBytes }

// MigrationNS returns the virtual nanoseconds spent in migration stages.
func (e *Engine) MigrationNS() float64 { return e.migStallNS }

// MigrationCounters returns the per-tier counter deltas attributable to
// migration traffic, measured by snapshotting the memory system around
// each epoch's charge batch.
//
//simlint:allow unreached what replay_test.go compares ReplayPlan's re-priced migrations against
func (e *Engine) MigrationCounters() [memsim.NumTiers]memsim.Counters { return e.migCounters }

// Plans returns the recorded migration history, one EpochPlan per tick
// that moved at least one block.
//
//simlint:allow unreached input of ReplayPlan, the reference replay_test.go and storm_test.go pin the policies with
func (e *Engine) Plans() []EpochPlan { return e.plans }

// Tick runs one migration epoch. It must be called on the driver
// goroutine at a stage boundary.
func (e *Engine) Tick() {
	e.epoch++
	k := e.sys.Kernel()
	now := k.Now()
	epochSeconds := float64(now-e.lastTick) / 1e9
	e.lastTick = now

	var specs [memsim.NumTiers]memsim.TierSpec
	for _, id := range memsim.AllTiers() {
		specs[id] = e.sys.Tier(id).Spec
	}

	plan := EpochPlan{Epoch: e.epoch, At: now}
	epochMap := e.classifier.NewHeatmap()
	var tasks []executor.SimTask
	// batches[i] is executor execIDs[i]'s admitted moves, still in that
	// executor's scratch: nothing reuses it before the residency flip.
	var batches [][]Move
	var execIDs []int
	moved := 0
	// Quota admission deltas accumulated across the whole tick: every
	// executor shares the tenant budget, and batches apply only after the
	// migration stage is charged, so admission must account the headroom
	// consumed by earlier batches in this tick.
	var fastDelta, slowDelta int64
	before := e.sys.Snapshot()
	for id := 0; id < e.pool.Size(); id++ {
		if !e.pool.Alive(id) {
			continue
		}
		st := &e.execs[id]
		st.tracker.Tick()
		// The snapshot is written into the buffer of the epoch the
		// history evicts, and the history owns it from Push on.
		snap := st.tracker.AppendSnapshot(st.history.Spare())
		st.history.Push(snap)
		// pred lives in the chain's buffers, which the next executor's
		// step overwrites: only view reads it.
		var pred []heat.Sample
		if e.chain != nil {
			pred = e.chain.ForecastBuffered(st.history, snap)
		}
		moves := e.policy.Plan(e.cfg, e.view(id, epochSeconds, specs, snap, pred, &epochMap))
		if st.mover != nil {
			moves = rateLimit(st.mover, e.pool.Executors[id].Blocks, moves, st.scratch.moves[:0])
		}
		moves = e.admitMoves(id, moves, &fastDelta, &slowDelta)
		if len(moves) == 0 {
			continue
		}
		ex := e.pool.Executors[id]
		ctx := e.pool.ConfigureContext(executor.NewPlacedTaskContext(ex.ID, ex.ID,
			e.pool.Tier(), e.pool.ShuffleTier(), e.pool.CacheTier(), e.cost,
			ex.Blocks, e.store, e.seed))
		chargeMoves(ctx, e.sys, e.cost, moves)
		ctx.Commit()
		tasks = append(tasks, executor.SimTask{Profile: ctx.Profile(), ExecID: ex.ID})
		execIDs = append(execIDs, id)
		batches = append(batches, moves)
		moved += len(moves)
	}

	if len(tasks) > 0 {
		for _, tid := range memsim.AllTiers() {
			e.migCounters[tid].Add(e.sys.Tier(tid).Counters().Sub(before[tid]))
		}
		// Migration batches are background remaps kicked off by a
		// block-manager RPC, not full Spark task launches: they pay the
		// (much cheaper) migration dispatch cost instead.
		migCost := e.cost
		if migCost.MigrateDispatchNS > 0 {
			migCost.TaskDispatchNS = migCost.MigrateDispatchNS
		}
		start := k.Now()
		executor.SimulateStage(k, e.pool, tasks, migCost)
		e.migStallNS += float64(k.Now() - start)
		// Residency flips only after the movement is charged and timed:
		// the plan was made against the pre-move state, and the next
		// stage reads blocks from their new tiers. The recorded plan
		// copies the batches out of the executors' scratch.
		plan.Moves = make([]PlannedMove, 0, moved)
		for i, id := range execIDs {
			blocks := e.pool.Executors[id].Blocks
			for _, m := range batches[i] {
				blocks.SetResidency(m.ID, m.To)
				plan.Moves = append(plan.Moves, PlannedMove{id, m})
				e.migratedBlocks++
				e.migratedBytes += m.Bytes
			}
		}
		e.plans = append(e.plans, plan)
	}
	e.heatmaps = append(e.heatmaps, EpochHeatmap{Epoch: e.epoch, At: now, Map: epochMap})
	e.publishGauges()
}

// rateLimit feeds a policy's plan through one executor's mover queue and
// appends this epoch's emitted batch to dst: the plan (in priority order)
// is enqueued — re-requests for already-queued blocks replace in place —
// and the queue emits up to its byte and move budgets, deferring the
// backlog. Queued requests whose block is gone or no longer resident on
// the request's source tier are dropped as stale at batch time. dst may
// share storage with moves: every move is enqueued before the batch is
// written.
func rateLimit(mv *heat.Mover, blocks *blockmgr.Manager, moves, dst []Move) []Move {
	for _, m := range moves {
		mv.Enqueue(m)
	}
	return mv.AppendNextBatch(dst, func(m Move) bool {
		tier, ok := blocks.TierOf(m.ID)
		return ok && tier == m.From
	})
}

// admitMoves filters a planned batch through the block manager's quota
// admission before anything is charged: under a tenant quota a promotion
// into an exhausted fast budget (or a demotion into an exhausted slow
// budget) is refused, so quota pressure shows up as refused migrations,
// never as mid-migration failures. Unmetered managers admit everything.
// Admitted moves are applied in plan order after the batch is charged;
// fastDelta/slowDelta carry the headroom already consumed by earlier
// moves of this tick (across executors, which share the tenant budget).
func (e *Engine) admitMoves(id int, moves []Move, fastDelta, slowDelta *int64) []Move {
	if len(moves) == 0 {
		return moves
	}
	blocks := e.pool.Executors[id].Blocks
	q := blocks.Quota()
	if q == nil {
		return moves
	}
	kept := moves[:0]
	for _, m := range moves {
		ok := blocks.CanMigrate(m.ID, m.To)
		if ok {
			switch m.To {
			case q.Fast:
				ok = q.FastUsed()+*fastDelta+m.Bytes <= q.FastBudgetBytes
			case q.Slow:
				ok = q.SlowBudgetBytes == 0 || q.SlowUsed()+*slowDelta+m.Bytes <= q.SlowBudgetBytes
			}
		}
		if !ok {
			e.refusedMoves++
			continue
		}
		switch m.To {
		case q.Fast:
			*fastDelta += m.Bytes
		case q.Slow:
			*slowDelta += m.Bytes
		}
		switch m.From {
		case q.Fast:
			*fastDelta -= m.Bytes
		case q.Slow:
			*slowDelta -= m.Bytes
		}
		kept = append(kept, m)
	}
	return kept
}

// view builds the frozen planning view for one executor and, as a side
// effect of the same walk, classifies every resident block into the
// epoch's heatmap. The walk is a merge join of three id-ordered lists:
// the resident blocks, the tracker snapshot the tick just took (a block
// absent from it has no recorded heat) and pred, the forecaster chain's
// output (nil when the policy does not forecast). Blocks found in pred
// plan on their predicted heat and write heat, blocks absent from it (or
// every block, without a chain) plan on the tracker's current values.
//
// The view lives in the executor's scratch and is valid until the
// executor's next view; its scratch buffers are sized to the block
// count, the most candidates or moves any policy plans.
func (e *Engine) view(id int, epochSeconds float64, specs [memsim.NumTiers]memsim.TierSpec,
	snap, pred []heat.Sample, epochMap *heat.Heatmap) View {
	blocks := e.pool.Executors[id].Blocks
	st := &e.execs[id]
	tr := st.tracker
	infos := blocks.AppendBlocks(st.infos[:0])
	st.infos = infos
	heats := slices.Grow(st.blocks[:0], len(infos))[:len(infos)]
	st.blocks = heats
	st.scratch.grow(len(infos))
	// infos, snap and pred are all in block-id order: one cursor each.
	si, pi := 0, 0
	for i, b := range infos {
		var h, p, w float64
		var ok bool
		if si, ok = heat.Seek(snap, si, b.ID); ok {
			h, p, w = snap[si].Heat, snap[si].Heat, snap[si].Write
		} else {
			// No recorded heat; the access tracker may still hold write
			// heat for it, which decays on its own clock.
			w = tr.WriteHeat(b.ID)
		}
		if pi, ok = heat.Seek(pred, pi, b.ID); ok {
			p, w = pred[pi].Heat, pred[pi].Write
		}
		heats[i] = BlockHeat{BlockInfo: b, Heat: h, Predicted: p, Write: w}
		epochMap.Add(h, b.Bytes)
	}
	return View{
		Blocks:       heats,
		FastUsed:     blocks.TierUsed(e.cfg.Fast),
		EpochSeconds: epochSeconds,
		Specs:        specs,
		scratch:      &st.scratch,
	}
}

// chargeMoves charges one executor's migration batch through the staged
// task-context path: per block a fixed CPU cost plus a sequential read
// from the source tier and a sequential write to the destination tier
// (DCPM's 256 B XPLine write amplification applies through the
// destination's line size). The context commits the deltas afterwards,
// exactly like a task.
func chargeMoves(ctx *executor.TaskContext, sys *memsim.System, cost executor.CostModel, moves []Move) {
	for _, m := range moves {
		ctx.CPU(cost.MigrateBlockNS)
		ctx.TierSeq(sys.Tier(m.From), memsim.Read, m.Bytes)
		ctx.TierSeq(sys.Tier(m.To), memsim.Write, m.Bytes)
	}
}

func addMoverStats(dst *heat.MoverStats, s heat.MoverStats) {
	dst.Enqueued += s.Enqueued
	dst.Replaced += s.Replaced
	dst.Emitted += s.Emitted
	dst.EmittedBytes += s.EmittedBytes
	dst.DroppedStale += s.DroppedStale
	dst.RefusedOversize += s.RefusedOversize
}

// Names and name prefixes of the gauges that sample the engine's state at
// its last tick rather than count what it did: per-tier occupancy, the
// last heatmap's classes and the movers' backlog.
const (
	occupancyGauge    = "tiering.occupancy."
	heatmapGauge      = "tiering.heatmap."
	moverPendingGauge = "tiering.mover.pending"
)

// PointInTime reports whether the engine counter name is one of those
// gauges. Summed over runs, such a gauge is a number no moment had; the
// epoch, migration and mover totals, Set though they are, are cumulative
// and sum.
func PointInTime(name string) bool {
	return name == moverPendingGauge || strings.HasPrefix(name, occupancyGauge) || strings.HasPrefix(name, heatmapGauge)
}

// publishGauges re-samples the occupancy gauges and migration totals
// into the telemetry registry.
func (e *Engine) publishGauges() {
	if e.reg == nil {
		return
	}
	var occ [memsim.NumTiers]int64
	for id := 0; id < e.pool.Size(); id++ {
		if !e.pool.Alive(id) {
			continue
		}
		for _, t := range memsim.AllTiers() {
			occ[t] += e.pool.Executors[id].Blocks.TierUsed(t)
		}
	}
	for _, t := range memsim.AllTiers() {
		e.reg.Set(e.occupancyGauges[t], occ[t])
	}
	e.reg.Set("tiering.epochs", int64(e.epoch))
	e.reg.Set("tiering.migrated_blocks", e.migratedBlocks)
	e.reg.Set("tiering.migrated_bytes", e.migratedBytes)
	e.reg.Set("tiering.refused_moves", e.refusedMoves)
	if len(e.heatmaps) > 0 {
		m := e.heatmaps[len(e.heatmaps)-1].Map
		for i := range m.Blocks {
			e.reg.Set(e.classBlocksGauges[i], m.Blocks[i])
			e.reg.Set(e.classBytesGauges[i], m.Bytes[i])
		}
	}
	if e.cfg.UsesMover() {
		st := e.retiredMovers
		var pending int64
		for id := 0; id < e.pool.Size(); id++ {
			if mv := e.execs[id].mover; mv != nil {
				addMoverStats(&st, mv.Stats())
				pending += int64(mv.Pending())
			}
		}
		e.reg.Set(moverPendingGauge, pending)
		e.reg.Set("tiering.mover.enqueued", st.Enqueued)
		e.reg.Set("tiering.mover.emitted", st.Emitted)
		e.reg.Set("tiering.mover.emitted_bytes", st.EmittedBytes)
		e.reg.Set("tiering.mover.dropped_stale", st.DroppedStale)
		e.reg.Set("tiering.mover.refused_oversize", st.RefusedOversize)
	}
}
