package hibench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

// dcpmCachePlacement is the DRAM-constrained experiment placement: heap
// and shuffle on local DRAM, the RDD cache on local DCPM.
func dcpmCachePlacement() *executor.Placement {
	return &executor.Placement{Heap: memsim.Tier0, Shuffle: memsim.Tier0, Cache: memsim.Tier2}
}

// The static policy must be completely inert: enabling tiering with it
// reproduces the untiered run bit-for-bit in every virtual observable.
func TestStaticTieringByteIdenticalToDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	for _, wl := range []string{"pagerank", "als"} {
		plain := RunSpec{Workload: wl, Size: workloads.Tiny, Tier: memsim.Tier0,
			Placement: dcpmCachePlacement(), TaskParallelism: 1}
		static := plain
		cfg := tiering.DefaultConfig(tiering.Static)
		static.Tiering = &cfg

		base, err := Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		inert, err := Run(static)
		if err != nil {
			t.Fatal(err)
		}
		if base.Duration != inert.Duration {
			t.Fatalf("%s: static tiering changed duration: %v vs %v", wl, base.Duration, inert.Duration)
		}
		if base.Metrics != inert.Metrics {
			t.Fatalf("%s: static tiering changed metrics:\n  plain:  %+v\n  static: %+v",
				wl, base.Metrics, inert.Metrics)
		}
		if base.NVMCounters != inert.NVMCounters {
			t.Fatalf("%s: static tiering changed NVM counters", wl)
		}
		if inert.Tiering.MigratedBlocks != 0 || inert.Tiering.MigrationNS != 0 {
			t.Fatalf("%s: static policy migrated: %+v", wl, inert.Tiering)
		}
		if inert.Tiering.Epochs == 0 {
			t.Fatalf("%s: engine attached but never ticked", wl)
		}
	}
}

// The headline result of results/autotier.md: on the remote-DCPM cache
// overflow scenario, the watermark policy beats the static baseline
// end-to-end at a DRAM-constrained capacity point. Guards the policy's
// economics (landing savings and re-read savings must outweigh the real
// migration costs) against calibration regressions.
func TestWatermarkBeatsStaticOnRemoteDCPMOverflow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs rf/large twice")
	}
	place := &executor.Placement{Heap: memsim.Tier0, Shuffle: memsim.Tier0, Cache: memsim.Tier3}
	spec := RunSpec{Workload: "rf", Size: workloads.Large, Tier: memsim.Tier0, Placement: place}

	staticCfg := tiering.DefaultConfig(tiering.Static)
	staticSpec := spec
	staticSpec.Tiering = &staticCfg
	st, err := Run(staticSpec)
	if err != nil {
		t.Fatal(err)
	}
	footprint := st.Engine["tiering.occupancy.tier3"]
	if footprint == 0 {
		t.Fatal("rf/large cached nothing")
	}

	wmCfg := tiering.DefaultConfig(tiering.Watermark)
	wmCfg.Slow = memsim.Tier3
	wmCfg.FastBudgetBytes = footprint / 2
	wmSpec := spec
	wmSpec.Tiering = &wmCfg
	wm, err := Run(wmSpec)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Tiering.MigratedBlocks == 0 {
		t.Fatal("watermark run migrated nothing")
	}
	if wm.Duration >= st.Duration {
		t.Fatalf("watermark (%v) did not beat static (%v) at budget %d",
			wm.Duration, st.Duration, wmCfg.FastBudgetBytes)
	}
}

// The forecast policy — trackers, history, forecaster chain, classifier
// and mover all engaged — must produce a byte-identical virtual ledger at
// any phase-1 worker count: every observable, including the heatmap and
// mover gauges and the recorded per-epoch heatmaps, matches between a
// serial and a wide parallel run.
func TestForecastTieringWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	cfg := tiering.DefaultConfig(tiering.Forecast)
	cfg.FastBudgetBytes = 1 << 10
	spec := RunSpec{Workload: "pagerank", Size: workloads.Tiny, Tier: memsim.Tier0,
		Placement: dcpmCachePlacement(), TaskParallelism: 1, Tiering: &cfg}
	wide := spec
	wide.TaskParallelism = 8

	// Cold stores: each run generates its input at its own worker count,
	// rather than the second reading the pages Run's slot kept.
	serial, err := RunShared(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunShared(wide, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Tiering.MigratedBlocks == 0 {
		t.Fatal("forecast run migrated nothing; the invariance check is vacuous")
	}
	if serial.Duration != parallel.Duration || serial.Metrics != parallel.Metrics ||
		serial.Tiering != parallel.Tiering {
		t.Fatalf("worker count changed the ledger:\n  1 worker:  %v %+v\n  8 workers: %v %+v",
			serial.Duration, serial.Tiering, parallel.Duration, parallel.Tiering)
	}
	// Every engine gauge is a virtual observable and must match.
	if !reflect.DeepEqual(serial.Engine, parallel.Engine) {
		t.Fatalf("worker count changed engine gauges:\n  1 worker:  %v\n  8 workers: %v",
			serial.Engine, parallel.Engine)
	}
	if !reflect.DeepEqual(serial.Heatmaps, parallel.Heatmaps) {
		t.Fatal("worker count changed the per-epoch heatmap history")
	}
	// The heatmap and mover gauges really are part of the compared
	// snapshot (guards against the gauge family being renamed away).
	var sawHeatmap, sawMover bool
	for k := range serial.Engine {
		sawHeatmap = sawHeatmap || strings.HasPrefix(k, "tiering.heatmap.")
		sawMover = sawMover || strings.HasPrefix(k, "tiering.mover.")
	}
	if !sawHeatmap || !sawMover {
		t.Fatalf("gauge snapshot missing heatmap/mover families: %v", serial.Engine)
	}
	if len(serial.Heatmaps) == 0 || serial.Heatmaps[len(serial.Heatmaps)-1].Epoch == 0 {
		t.Fatal("no per-epoch heatmaps recorded")
	}
}

// A dynamic policy must migrate under a constrained DRAM budget and be
// bit-for-bit reproducible across runs of the same seed, engine gauges
// included.
func TestWatermarkTieringDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	cfg := tiering.DefaultConfig(tiering.Watermark)
	cfg.FastBudgetBytes = 1 << 10 // far below pagerank/tiny's ~4.3 KB cache footprint
	spec := RunSpec{Workload: "pagerank", Size: workloads.Tiny, Tier: memsim.Tier0,
		Placement: dcpmCachePlacement(), TaskParallelism: 1, Tiering: &cfg}

	// Cold stores, so the second run generates its input again.
	first, err := RunShared(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunShared(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tiering.MigratedBlocks == 0 {
		t.Fatal("constrained watermark run migrated nothing")
	}
	if first.Duration != second.Duration || first.Metrics != second.Metrics ||
		first.Tiering != second.Tiering || !reflect.DeepEqual(first.Engine, second.Engine) {
		t.Fatalf("same-seed tiered runs diverged:\n  first:  %v %+v\n  second: %v %+v",
			first.Duration, first.Tiering, second.Duration, second.Tiering)
	}
	// Migration gauges surfaced through the engine counter snapshot.
	if first.Engine["tiering.migrated_blocks"] != first.Tiering.MigratedBlocks {
		t.Fatalf("gauge snapshot %d != engine stats %d",
			first.Engine["tiering.migrated_blocks"], first.Tiering.MigratedBlocks)
	}
}
