package multitenant

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockmgr"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

// testConf is a small two-tenant mix over cheap cells.
func testConf(mod func(*Conf)) Conf {
	c := Conf{
		Tenants: []TenantSpec{
			{Name: "a", Weight: 1, Jobs: 3, FastQuotaBytes: 4 << 20},
			{Name: "b", Weight: 2, Jobs: 3, FastQuotaBytes: 4 << 20},
		},
		Workloads: []string{"sort", "bayes"},
		Size:      workloads.Tiny,
		Seed:      7,
	}
	if mod != nil {
		mod(&c)
	}
	return c
}

// TestGenerateMixDeterministic pins the generator: same conf, same mix;
// a different seed reshuffles it; arrivals come out sorted.
func TestGenerateMixDeterministic(t *testing.T) {
	c := testConf(nil)
	m1 := GenerateMix(c)
	m2 := GenerateMix(c)
	if fmt.Sprintf("%+v", m1) != fmt.Sprintf("%+v", m2) {
		t.Fatal("same conf generated different mixes")
	}
	if len(m1) != 6 {
		t.Fatalf("mix has %d jobs, want 6", len(m1))
	}
	for i, j := range m1 {
		if j.DemandBytes <= 0 {
			t.Fatalf("job %s has demand %d", j, j.DemandBytes)
		}
		if j.Seed == 0 {
			t.Fatalf("job %s has zero seed", j)
		}
		if i > 0 && j.Arrival < m1[i-1].Arrival {
			t.Fatalf("mix not sorted by arrival at %d", i)
		}
	}
	c.Seed = 8
	if fmt.Sprintf("%+v", GenerateMix(c)) == fmt.Sprintf("%+v", m1) {
		t.Fatal("different seed generated the same mix")
	}
}

// TestConfValidate pins the rejection message for every malformed knob.
func TestConfValidate(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Conf)
		want string
	}{
		{"valid", nil, ""},
		{"no tenants", func(c *Conf) { c.Tenants = nil }, "no tenants"},
		{"unnamed tenant", func(c *Conf) { c.Tenants[1].Name = "" }, "tenant 1 has no name"},
		{"duplicate tenant", func(c *Conf) { c.Tenants[1].Name = "a" }, `duplicate tenant name "a"`},
		{"zero jobs", func(c *Conf) { c.Tenants[0].Jobs = 0 }, `tenant "a" submits 0 jobs`},
		{"zero fast quota", func(c *Conf) { c.Tenants[0].FastQuotaBytes = 0 }, "needs FastQuotaBytes > 0"},
		{"negative slow quota", func(c *Conf) { c.Tenants[0].SlowQuotaBytes = -1 }, "negative SlowQuotaBytes"},
		{"negative weight", func(c *Conf) { c.Tenants[0].Weight = -1 }, "negative weight"},
		{"bad policy", func(c *Conf) { c.Policy = "lifo" }, `unknown scheduler policy "lifo"`},
		{"weighted needs weights", func(c *Conf) { c.Policy = Weighted; c.Tenants[0].Weight = 0 },
			"weighted policy needs positive weights"},
		{"negative budget", func(c *Conf) { c.DRAMBudgetBytes = -1 }, "negative DRAMBudgetBytes"},
		{"negative parallelism", func(c *Conf) { c.TaskParallelism = -1 }, "negative TaskParallelism"},
		{"bad size", func(c *Conf) { c.Size = workloads.NumSizes }, "invalid size"},
		{"bad tiering", func(c *Conf) { c.Tiering = "psychic" }, `unknown tiering policy "psychic"`},
		{"bad workload", func(c *Conf) { c.Workloads = []string{"terasort"} }, "terasort"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testConf(tc.mod)
			err := c.Validate()
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
}

// TestOversubscribedSpillCompletes pinches every tenant's fast quota far
// below the workloads' cache footprints: placements must degrade to DCPM
// and every job must still complete — zero failures, nonzero spills —
// with both tenant ledgers drained to zero at the end (no bleed).
func TestOversubscribedSpillCompletes(t *testing.T) {
	c := testConf(func(c *Conf) {
		c.Workloads = []string{"bayes", "pagerank"}
		for i := range c.Tenants {
			c.Tenants[i].FastQuotaBytes = 16 << 10 // 16 KiB: far below footprint
		}
	})
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Rejected != 0 {
		t.Fatalf("oversubscribed run failed=%d rejected=%d, want 0/0\n%s",
			res.Failed, res.Rejected, RenderReport(res))
	}
	if res.Completed != len(res.Jobs) {
		t.Fatalf("completed %d of %d", res.Completed, len(res.Jobs))
	}
	if res.SpilledBlocks == 0 || res.SpilledBytes == 0 {
		t.Fatalf("no graceful-degradation spills (blocks=%d bytes=%d)", res.SpilledBlocks, res.SpilledBytes)
	}
	for _, name := range []string{"a", "b"} {
		for _, g := range []string{"quota.end_fast_bytes", "quota.end_slow_bytes"} {
			if v := res.Registry.Get("tenant." + name + "." + g); v != 0 {
				t.Fatalf("tenant %s ledger not drained: %s = %d", name, g, v)
			}
		}
	}
}

// TestHardExhaustionIsolated exhausts one tenant's slow budget too: that
// tenant's jobs die with the typed quota error while the other tenant's
// jobs — sharing the cluster — all complete.
func TestHardExhaustionIsolated(t *testing.T) {
	c := testConf(func(c *Conf) {
		c.Workloads = []string{"bayes"}
		c.Tenants[0].FastQuotaBytes = 4 << 10
		c.Tenants[0].SlowQuotaBytes = 4 << 10 // bounded: degradation runs out
		c.Tenants[0].Jobs = 2
		c.Tenants[1].Jobs = 2
	})
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	var aFailed, bCompleted int
	for _, r := range res.Jobs {
		switch r.Job.Tenant {
		case "a":
			if r.Outcome != OutcomeQuotaExhausted {
				t.Fatalf("tenant a job %s outcome %s, want %s", r.Job, r.Outcome, OutcomeQuotaExhausted)
			}
			var qe *blockmgr.QuotaExceededError
			if !errors.As(r.Err, &qe) {
				t.Fatalf("tenant a job %s error %v, want *QuotaExceededError", r.Job, r.Err)
			}
			if qe.Tenant != "a" {
				t.Fatalf("quota error names tenant %q, want a", qe.Tenant)
			}
			aFailed++
		case "b":
			if r.Outcome != OutcomeCompleted {
				t.Fatalf("tenant b job %s outcome %s (%v), want completed", r.Job, r.Outcome, r.Err)
			}
			bCompleted++
		}
	}
	if aFailed != 2 || bCompleted != 2 {
		t.Fatalf("aFailed=%d bCompleted=%d, want 2/2", aFailed, bCompleted)
	}
}

// contentionConf squeezes the DRAM budget so only one job fits at a
// time; everything else must queue.
func contentionConf(mod func(*Conf)) Conf {
	return testConf(func(c *Conf) {
		c.Workloads = []string{"sort"}
		c.DRAMBudgetBytes = 640 << 10 // one tiny sort job (demand <= 320 KiB jittered)
		if mod != nil {
			mod(c)
		}
	})
}

// TestQueueModeDrainsEverything: under heavy contention nothing is
// rejected — jobs wait and all complete.
func TestQueueModeDrainsEverything(t *testing.T) {
	res, err := Run(contentionConf(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 || res.Completed != len(res.Jobs) {
		t.Fatalf("queue mode rejected=%d completed=%d/%d\n%s",
			res.Rejected, res.Completed, len(res.Jobs), RenderReport(res))
	}
	if res.QueuedJobs == 0 {
		t.Fatal("contended queue mode queued nothing")
	}
}

// TestRejectOverBudgetDemand: a job whose declared demand exceeds the
// whole budget is rejected immediately with the typed error.
func TestRejectOverBudgetDemand(t *testing.T) {
	res, err := Run(testConf(func(c *Conf) {
		c.Workloads = []string{"bayes"}
		c.DRAMBudgetBytes = 1 << 10
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != len(res.Jobs) {
		t.Fatalf("rejected %d of %d over-budget jobs", res.Rejected, len(res.Jobs))
	}
	var rej *AdmissionRejectedError
	if !errors.As(res.Jobs[0].Err, &rej) {
		t.Fatalf("error %v, want *AdmissionRejectedError", res.Jobs[0].Err)
	}
	if rej.Demand <= rej.Budget || !strings.Contains(rej.Error(), "exceeds the DRAM budget") {
		t.Fatalf("immediate rejection got %+v", rej)
	}
}

// admitOrder extracts the tenant sequence of admit events from a trace.
func admitOrder(trace []string) []string {
	var order []string
	for _, line := range trace {
		i := strings.Index(line, "admit  ")
		if i < 0 {
			continue
		}
		rest := line[i+len("admit  "):]
		order = append(order, rest[:strings.Index(rest, "/")])
	}
	return order
}

// TestFairPolicyInterleavesTenants: with one-at-a-time admission and a
// backlog from both tenants, Fair alternates tenants while FIFO follows
// arrival order; the two traces must differ and Fair must never admit
// the same tenant three times in a row while the other waits.
func TestFairPolicyInterleavesTenants(t *testing.T) {
	fifo, err := Run(contentionConf(func(c *Conf) { c.Policy = FIFO }))
	if err != nil {
		t.Fatal(err)
	}
	fair, err := Run(contentionConf(func(c *Conf) { c.Policy = Fair }))
	if err != nil {
		t.Fatal(err)
	}
	fo, fa := admitOrder(fifo.Trace), admitOrder(fair.Trace)
	if len(fo) != 6 || len(fa) != 6 {
		t.Fatalf("admit counts fifo=%d fair=%d, want 6", len(fo), len(fa))
	}
	// Fair alternation: among the queued tail, consecutive same-tenant
	// admissions only happen when the other tenant has no queued jobs
	// left — so tenant counts must stay within 1 of each other along any
	// prefix once both have backlogs. Weak but deterministic check: the
	// last three admissions cannot all be one tenant under Fair.
	tail := strings.Join(fa[3:], "")
	if tail == "aaa" || tail == "bbb" {
		t.Fatalf("fair admitted tail %v — one tenant starved", fa)
	}
	if fair.Completed != 6 || fifo.Completed != 6 {
		t.Fatalf("completions fifo=%d fair=%d, want 6", fifo.Completed, fair.Completed)
	}
}

// TestPerJobFaultRecoveryIsolated injects an executor crash into exactly
// one tenant-a job mid-contention: that job recovers through lineage and
// completes; recovery counters appear only under tenant a's prefix.
func TestPerJobFaultRecoveryIsolated(t *testing.T) {
	c := testConf(func(c *Conf) {
		c.Workloads = []string{"sort"}
		c.Faults = func(tenant, seq int) *faults.Plan {
			if tenant == 0 && seq == 0 {
				return &faults.Plan{Crashes: []faults.Crash{
					{Exec: 1, At: 2 * sim.Millisecond, Replace: true},
				}}
			}
			return nil
		}
	})
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(res.Jobs) {
		t.Fatalf("completed %d of %d with injected crash\n%s",
			res.Completed, len(res.Jobs), RenderReport(res))
	}
	if got := res.Registry.Get("tenant.a.recovery.executor_crashes"); got != 1 {
		t.Fatalf("tenant.a.recovery.executor_crashes = %d, want 1", got)
	}
	if got := res.Registry.Get("tenant.b.recovery.executor_crashes"); got != 0 {
		t.Fatalf("crash bled into tenant b: recovery.executor_crashes = %d", got)
	}
}

// TestMixByteIdenticalAcrossWorkerCounts mirrors the core reproduction
// determinism harness: the full rendered report — trace, job table,
// counters, totals — must be byte-identical whether phase-1 runs on one
// worker or eight.
func TestMixByteIdenticalAcrossWorkerCounts(t *testing.T) {
	c := testConf(func(c *Conf) {
		c.Workloads = []string{"sort", "bayes"}
		c.Tenants[0].FastQuotaBytes = 16 << 10 // spill path exercised too
		c.Tiering = "watermark"
	})
	run := func(workers int) string {
		c.TaskParallelism = workers
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return RenderReport(res)
	}
	r1 := run(1)
	r8 := run(8)
	if r1 != r8 {
		t.Fatalf("reports differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", r1, r8)
	}
}

// FuzzMultitenantConf holds Validate to its word over small confs — up to
// three tenants of up to two tiny sort/bayes jobs each, under any policy,
// tiering, budget and quotas, malformed values included. Validate never
// panics; a conf it accepts runs without error, every job ends in exactly
// one outcome, the admission tallies account for every job, and every
// tenant's quota ledger drains to zero.
func FuzzMultitenantConf(f *testing.F) {
	f.Add("fifo", "", int64(0), 0, uint8(0b011), uint8(0x02), uint16(0x33), uint16(0x22), int64(4<<20), int64(0), int8(1), int64(7))
	f.Add("fair", "watermark", int64(640<<10), 0, uint8(0b001), uint8(0x03), uint16(0x333), uint16(0x123), int64(16<<10), int64(0), int8(1), int64(5))
	f.Add("weighted", "forecast", int64(2<<20), 0, uint8(0b011), uint8(0x03), uint16(0x333), uint16(0x232), int64(32<<10), int64(0), int8(2), int64(3))
	f.Add("fifo", "age", int64(0), 0, uint8(0b010), uint8(0x02), uint16(0x33), uint16(0x22), int64(4<<10), int64(4<<10), int8(1), int64(1))
	f.Add("fair", "", int64(1<<10), 0, uint8(0b010), uint8(0x01), uint16(0x3), uint16(0x2), int64(1<<62), int64(1<<62), int8(0), int64(-9))
	f.Add("lifo", "psychic", int64(-1), 3, uint8(0b111), uint8(0x33), uint16(0x0), uint16(0x0), int64(0), int64(-1), int8(-1), int64(0))
	f.Fuzz(func(t *testing.T, policy, tier string, budget int64, size int, wl, tenants uint8,
		jobs, weights uint16, fastQuota, slowQuota int64, par int8, seed int64) {
		c := Conf{
			Policy: SchedulerPolicy(policy), Tiering: tiering.PolicyKind(tier),
			DRAMBudgetBytes: budget, Size: workloads.Tiny, TaskParallelism: int(par % 3), Seed: seed,
		}
		if size < int(workloads.Tiny) || size >= int(workloads.NumSizes) {
			c.Size = workloads.Size(size)
		}
		for i, name := range []string{"sort", "bayes", "terasort"} {
			if wl>>i&1 == 1 {
				c.Workloads = append(c.Workloads, name)
			}
		}
		if len(c.Workloads) == 0 {
			c.Workloads = []string{"sort"}
		}
		for i := 0; i < int(tenants%4); i++ {
			c.Tenants = append(c.Tenants, TenantSpec{
				Name:           string(rune('a' + i)),
				Jobs:           int(jobs>>(4*i)&0xf)%4 - 1,
				Weight:         int(weights>>(4*i)&0xf)%4 - 1,
				FastQuotaBytes: fastQuota >> i,
				SlowQuotaBytes: slowQuota >> i,
			})
		}
		if tenants&0x10 != 0 && len(c.Tenants) > 1 {
			c.Tenants[1].Name = "a"
		}
		if tenants&0x20 != 0 && len(c.Tenants) > 0 {
			c.Tenants[0].Name = ""
		}
		if c.Validate() != nil {
			return
		}
		res, err := Run(c)
		if err != nil {
			t.Fatalf("Validate accepted %+v, Run failed: %v", c, err)
		}
		submitted := 0
		for _, ts := range c.Tenants {
			submitted += ts.Jobs
		}
		if len(res.Jobs) != submitted || res.Admitted+res.Rejected != submitted ||
			res.Completed+res.Failed != res.Admitted {
			t.Fatalf("%d jobs submitted, %d recorded: admitted=%d rejected=%d completed=%d failed=%d",
				submitted, len(res.Jobs), res.Admitted, res.Rejected, res.Completed, res.Failed)
		}
		for _, r := range res.Jobs {
			var ok bool
			switch r.Outcome {
			case OutcomeCompleted:
				ok = r.Admitted && r.Err == nil
			case OutcomeQuotaExhausted, OutcomeAborted:
				ok = r.Admitted && r.Err != nil
			case OutcomeRejected:
				// A job left in the queue would still carry its initial
				// rejected outcome, without the typed error.
				var rej *AdmissionRejectedError
				ok = !r.Admitted && errors.As(r.Err, &rej)
			}
			if !ok {
				t.Fatalf("job %s ended as %q (admitted=%v, err=%v)", r.Job, r.Outcome, r.Admitted, r.Err)
			}
		}
		for _, ts := range c.Tenants {
			for _, g := range []string{"quota.end_fast_bytes", "quota.end_slow_bytes"} {
				if v := res.Registry.Get("tenant." + ts.Name + "." + g); v != 0 {
					t.Fatalf("tenant %s ledger not drained: %s = %d", ts.Name, g, v)
				}
			}
		}
	})
}
