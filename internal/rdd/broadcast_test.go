package rdd_test

import (
	"testing"

	"repro/internal/executor"
	"repro/internal/rdd"
)

func TestBroadcastChargesOncePerTask(t *testing.T) {
	app := newApp()
	model := make([]float64, 1000)
	b := rdd.NewBroadcast(app, model, 8000)
	before := app.Tier().Counters().ReadBytes
	r := rdd.Parallelize(app, "xs", []int{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	sum := rdd.Collect(rdd.MapPartitions(r, func(ctx *executor.TaskContext, part int, in []int) []int {
		total := 0
		for range in {
			total += len(b.Value(ctx)) // touch per record; charged once
		}
		return []int{total}
	}))
	if len(sum) != 4 {
		t.Fatalf("partitions = %d", len(sum))
	}
	delta := app.Tier().Counters().ReadBytes - before
	// 4 tasks, one 8000-byte fetch each = 32000 (plus the small
	// Parallelize slice reads).
	if delta < 32_000 || delta > 40_000 {
		t.Fatalf("broadcast charged %d read bytes over 4 tasks, want ~32000", delta)
	}
}

func TestBroadcastDefaultSizeEstimate(t *testing.T) {
	app := newApp()
	b := rdd.NewBroadcast(app, "hello", 0)
	if b.Bytes() != 16+5 {
		t.Fatalf("estimated bytes = %d, want 21", b.Bytes())
	}
}

func TestBroadcastOutsideTaskPanics(t *testing.T) {
	app := newApp()
	b := rdd.NewBroadcast(app, 42, 0)
	defer func() {
		if recover() == nil {
			t.Error("nil-context access did not panic")
		}
	}()
	b.Value(nil)
}
