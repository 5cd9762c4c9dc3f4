package multitenant

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

// pinnedMixes are the admission scenarios whose rendered reports are
// pinned: every scheduler policy under three migration policies on a
// contended three-tenant mix, a crash while two jobs are in flight, one
// tenant exhausting both quota tiers, and one job aborting.
func pinnedMixes() map[string]Conf {
	mixes := map[string]Conf{}
	for _, sched := range AllPolicies() {
		for _, mig := range []tiering.PolicyKind{tiering.Static, tiering.Watermark, tiering.Forecast} {
			mixes[string(sched)+"/"+string(mig)] = Conf{
				Tenants: []TenantSpec{
					{Name: "ana", Weight: 1, Jobs: 3, FastQuotaBytes: 32 << 10},
					{Name: "bo", Weight: 2, Jobs: 3, FastQuotaBytes: 32 << 10},
					{Name: "cy", Weight: 1, Jobs: 3, FastQuotaBytes: 64 << 10},
				},
				Workloads:       []string{"sort", "bayes", "pagerank"},
				Size:            workloads.Tiny,
				DRAMBudgetBytes: 2 << 20,
				Policy:          sched,
				Tiering:         mig,
				Seed:            5,
			}
		}
	}
	mixes["crash-in-flight"] = Conf{
		Tenants: []TenantSpec{
			{Name: "a", Jobs: 2, FastQuotaBytes: 32 << 10},
			{Name: "b", Jobs: 2, FastQuotaBytes: 4 << 20},
		},
		Workloads: []string{"sort", "bayes"},
		Size:      workloads.Tiny,
		Seed:      1,
		Faults: func(tenant, seq int) *faults.Plan {
			if tenant == 0 && seq == 0 {
				return &faults.Plan{Crashes: []faults.Crash{{Exec: 1, At: 2 * sim.Millisecond, Replace: true}}}
			}
			return nil
		},
	}
	mixes["exhaustion"] = Conf{
		Tenants: []TenantSpec{
			{Name: "greedy", Jobs: 2, FastQuotaBytes: 4 << 10, SlowQuotaBytes: 4 << 10},
			{Name: "steady", Jobs: 2, FastQuotaBytes: 4 << 20},
		},
		Workloads: []string{"bayes"},
		Size:      workloads.Tiny,
		Seed:      5,
	}
	mixes["abort"] = testConf(func(c *Conf) {
		c.Faults = func(tenant, seq int) *faults.Plan {
			if tenant == 1 && seq == 1 {
				return &faults.Plan{TaskFailureRate: 0.5, MaxTaskFailures: 1}
			}
			return nil
		}
	})
	return mixes
}

// reportDigests splits a rendered report into its "## counters" section
// and everything else, and returns a SHA-256 prefix of each.
func reportDigests(report string) (rest, counters string) {
	start := strings.Index(report, "\n## counters\n")
	end := strings.Index(report, "\n## totals\n")
	digest := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16] }
	return digest(report[:start] + report[end:]), digest(report[start:end])
}

// TestAdmissionTracePinned pins every pinned mix's report — the trace,
// job table and totals, and apart from them the per-tenant counters — so
// a change to how the admission loop keeps time, or to what a tenant's
// counters take in, shows up as a moved digest. The counters of the
// abort and exhaustion mixes include the failed jobs' work
// (tenant.b.recovery.job_aborts = 1, tenant.greedy.stages.run = 2,
// tenant.greedy.tasks.computed = 160). No tenant row sums a per-job
// point-in-time gauge: quota.fast_used_bytes and the tiering.occupancy.*
// rows once read up to three times the tenant's peak.
func TestAdmissionTracePinned(t *testing.T) {
	want := map[string][2]string{
		"abort":              {"9629858b3c73e77b", "506dabc7b878e682"},
		"crash-in-flight":    {"be26de82472d4b89", "e5333c06bb315c53"},
		"exhaustion":         {"d274a406f51fddcd", "3d4cb3ba50a813db"},
		"fair/forecast":      {"d951111ea8aaa2de", "74a40f280e7f9dde"},
		"fair/static":        {"749da272539488dc", "aa074d0b90892bae"},
		"fair/watermark":     {"7c7f7546827225e4", "5349d8737b681c56"},
		"fifo/forecast":      {"2ee77b8cf52fb2de", "74a40f280e7f9dde"},
		"fifo/static":        {"399f805d026c6a7c", "4b2de531efecf44f"},
		"fifo/watermark":     {"be8baa74c9f5f9e4", "5349d8737b681c56"},
		"weighted/forecast":  {"60e8db75faa968d2", "74a40f280e7f9dde"},
		"weighted/static":    {"0a468cf7715877c1", "aa074d0b90892bae"},
		"weighted/watermark": {"6ab96248874722f0", "5349d8737b681c56"},
	}
	for name, c := range pinnedMixes() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if failing := name == "abort" || name == "exhaustion"; failing != (res.Failed > 0) {
				t.Fatalf("%d failed jobs: the mix does not exercise its scenario", res.Failed)
			}
			for _, name := range res.Registry.Names() {
				if _, job, ok := strings.Cut(strings.TrimPrefix(name, "tenant."), "."); ok && pointInTime(job) {
					t.Errorf("%s = %d sums a per-job gauge over the tenant's jobs", name, res.Registry.Get(name))
				}
			}
			rest, counters := reportDigests(RenderReport(res))
			pin, ok := want[name]
			if !ok {
				t.Errorf("%q: {%q, %q},", name, rest, counters)
				return
			}
			if rest != pin[0] {
				t.Errorf("report without counters: digest %s, pinned %s", rest, pin[0])
			}
			if counters != pin[1] {
				t.Errorf("counters: digest %s, pinned %s", counters, pin[1])
			}
		})
	}
}
