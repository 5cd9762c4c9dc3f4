package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/sim"
)

func TestDefaultConfIsPaperDefault(t *testing.T) {
	c := DefaultConf()
	if c.Executors != 1 || c.CoresPerExecutor != 40 {
		t.Fatalf("default = %d x %d, want 1 x 40", c.Executors, c.CoresPerExecutor)
	}
	if c.Binding.Mem != memsim.Tier0 {
		t.Fatalf("default binding %v, want Tier 0", c.Binding)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfValidation(t *testing.T) {
	bad := []Conf{
		{Executors: 0, CoresPerExecutor: 4, Binding: numa.BindingForTier(memsim.Tier0)},
		{Executors: 1, CoresPerExecutor: 0, Binding: numa.BindingForTier(memsim.Tier0)},
		{Executors: 3, CoresPerExecutor: 40, Binding: numa.BindingForTier(memsim.Tier0)}, // 120 > 80
		{Executors: 1, CoresPerExecutor: 4, Binding: numa.BindingForTier(memsim.Tier0), BandwidthCap: 2},
		{Executors: 1, CoresPerExecutor: 4, Binding: numa.Binding{CPU: 9, Mem: memsim.Tier0}},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("conf %d accepted: %+v", i, c)
		}
	}
}

// TestConfValidateQuota pins the rejection messages of the tenant-quota
// knob and checks a valid quota reaches every executor's block manager.
func TestConfValidateQuota(t *testing.T) {
	cases := []struct {
		name  string
		quota *blockmgr.TenantQuota
		want  string // "" accepts
	}{
		{"nil quota ok", nil, ""},
		{"valid quota ok", &blockmgr.TenantQuota{
			Tenant: "t", Fast: memsim.Tier0, Slow: memsim.Tier2, FastBudgetBytes: 1 << 20}, ""},
		{"unnamed tenant", &blockmgr.TenantQuota{
			Fast: memsim.Tier0, Slow: memsim.Tier2, FastBudgetBytes: 1}, "empty tenant name"},
		{"same tiers", &blockmgr.TenantQuota{
			Tenant: "t", Fast: memsim.Tier2, Slow: memsim.Tier2, FastBudgetBytes: 1},
			"fast and slow tier are both"},
		{"zero fast budget", &blockmgr.TenantQuota{
			Tenant: "t", Fast: memsim.Tier0, Slow: memsim.Tier2}, "needs FastBudgetBytes > 0"},
		{"negative slow budget", &blockmgr.TenantQuota{
			Tenant: "t", Fast: memsim.Tier0, Slow: memsim.Tier2,
			FastBudgetBytes: 1, SlowBudgetBytes: -1}, "negative SlowBudgetBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conf := DefaultConf()
			conf.CoresPerExecutor = 4
			conf.Quota = tc.quota
			err := conf.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}

	conf := DefaultConf()
	conf.CoresPerExecutor = 4
	conf.Executors = 2
	conf.Quota = &blockmgr.TenantQuota{
		Tenant: "t", Fast: memsim.Tier0, Slow: memsim.Tier2, FastBudgetBytes: 1 << 20}
	app := New(conf)
	if app.Pool().Quota() != conf.Quota {
		t.Fatal("pool did not adopt the conf quota")
	}
	for i, ex := range app.Pool().Executors {
		if ex.Blocks.Quota() != conf.Quota {
			t.Fatalf("executor %d block manager missing the quota", i)
		}
	}
}

func TestNewAppStartupAccounted(t *testing.T) {
	conf := DefaultConf()
	conf.CoresPerExecutor = 4
	app := New(conf)
	if app.Elapsed() <= 0 {
		t.Error("executor startup must consume virtual time")
	}
	if app.Tier().Counters().WriteBytes < app.Cost().ExecStartupBytes {
		t.Error("executor heap init traffic missing from tier counters")
	}
}

func TestMoreExecutorsMoreStartupTraffic(t *testing.T) {
	mk := func(n int) int64 {
		conf := DefaultConf()
		conf.Executors = n
		conf.CoresPerExecutor = 4
		app := New(conf)
		return app.Tier().Counters().WriteBytes
	}
	if mk(4) <= mk(1) {
		t.Error("4 executors must write more startup bytes than 1")
	}
}

func TestDefaultParallelismDerivation(t *testing.T) {
	conf := DefaultConf()
	conf.Executors = 2
	conf.CoresPerExecutor = 10
	app := New(conf)
	if got := app.DefaultParallelism(); got != 40 {
		t.Fatalf("default parallelism = %d, want 2x20=40", got)
	}
	conf.DefaultParallelism = 7
	app2 := New(conf)
	if app2.DefaultParallelism() != 7 {
		t.Fatal("explicit parallelism not honored")
	}
}

func TestBandwidthCapApplied(t *testing.T) {
	// drain is how long the bound tier takes to stream 1 GB.
	drain := func(cap float64) sim.Duration {
		conf := DefaultConf()
		conf.CoresPerExecutor = 4
		conf.BandwidthCap = cap
		app := New(conf)
		start := app.Kernel().Now()
		var end sim.Time
		app.Tier().Server().Submit(app.Tier().ChannelUnits(memsim.Read, memsim.Sequential, 1e9), func(now sim.Time) { end = now })
		app.Kernel().Run()
		return end - start
	}
	if got := float64(drain(0)) / float64(drain(0.25)); math.Abs(got-0.25) > 1e-6 {
		t.Fatalf("capped tier drains at %v of full speed, want 0.25", got)
	}
}

func TestIDAllocation(t *testing.T) {
	conf := DefaultConf()
	conf.CoresPerExecutor = 4
	app := New(conf)
	a, b := app.NextRDDID(), app.NextRDDID()
	if a == b {
		t.Error("duplicate RDD ids")
	}
	s1, s2 := app.NextShuffleID(), app.NextShuffleID()
	if s1 == s2 {
		t.Error("duplicate shuffle ids")
	}
}

func TestCustomCostModel(t *testing.T) {
	cost := executor.DefaultCostModel()
	cost.ExecStartupNS = 0
	cost.ExecStartupBytes = 0
	cost.StageOverheadNS = 0
	conf := DefaultConf()
	conf.CoresPerExecutor = 4
	conf.Cost = &cost
	app := New(conf)
	if app.Cost().ExecStartupNS != 0 {
		t.Error("custom cost model not installed")
	}
}

func TestEnergyReportPerTier(t *testing.T) {
	conf := DefaultConf()
	conf.CoresPerExecutor = 4
	conf.Binding = numa.BindingForTier(memsim.Tier2)
	app := New(conf)
	rep := app.EnergyReport(memsim.Tier2)
	if rep.TotalJ <= 0 {
		t.Error("bound tier energy must be positive after startup")
	}
	if rep.Kind != memsim.DCPM {
		t.Errorf("tier 2 kind = %v, want DCPM", rep.Kind)
	}
}

func TestInvalidConfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid conf did not panic")
		}
	}()
	New(Conf{})
}

func TestCustomTierSpecs(t *testing.T) {
	specs := memsim.DefaultSpecs()
	specs[memsim.Tier2].IdleLatencyNS = 999
	conf := DefaultConf()
	conf.CoresPerExecutor = 4
	conf.TierSpecs = &specs
	app := New(conf)
	if got := app.System().Tier(memsim.Tier2).Spec.IdleLatencyNS; got != 999 {
		t.Fatalf("custom spec not installed: latency = %v", got)
	}
	// Default apps keep Table I.
	app2 := New(Conf{Executors: 1, CoresPerExecutor: 4, Binding: numa.BindingForTier(memsim.Tier0), Seed: 1})
	if got := app2.System().Tier(memsim.Tier2).Spec.IdleLatencyNS; got != 172.1 {
		t.Fatalf("default spec drifted: %v", got)
	}
}

func TestPlacementConfValidation(t *testing.T) {
	bad := executor.Placement{Heap: memsim.TierID(9), Shuffle: memsim.Tier0, Cache: memsim.Tier0}
	conf := DefaultConf()
	conf.CoresPerExecutor = 4
	conf.Placement = &bad
	if conf.Validate() == nil {
		t.Fatal("invalid placement accepted")
	}
}

func TestMetricsAggregateAcrossTiers(t *testing.T) {
	p := executor.Placement{Heap: memsim.Tier0, Shuffle: memsim.Tier2, Cache: memsim.Tier0}
	conf := DefaultConf()
	conf.CoresPerExecutor = 4
	conf.Placement = &p
	app := New(conf)
	// Startup writes to the heap tier only; simulate shuffle-tier traffic.
	app.System().Tier(memsim.Tier2).RecordAccess(memsim.Read, 4096)
	m := app.Metrics()
	t0 := app.System().Tier(memsim.Tier0).Counters()
	t2 := app.System().Tier(memsim.Tier2).Counters()
	if m.ReadBytes != t0.ReadBytes+t2.ReadBytes {
		t.Fatalf("metrics read bytes %d != sum of tiers %d", m.ReadBytes, t0.ReadBytes+t2.ReadBytes)
	}
}
