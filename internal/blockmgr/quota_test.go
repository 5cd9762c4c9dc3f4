package blockmgr

import (
	"errors"
	"testing"

	"repro/internal/memsim"
)

func testQuota(fast, slow int64) *TenantQuota {
	return &TenantQuota{
		Tenant: "t0", Fast: memsim.Tier0, Slow: memsim.Tier2,
		FastBudgetBytes: fast, SlowBudgetBytes: slow,
	}
}

// TestQuotaValidate pins the rejection messages for every malformed
// quota shape.
func TestQuotaValidate(t *testing.T) {
	cases := []struct {
		name string
		q    *TenantQuota
		want string
	}{
		{"nil ok", nil, ""},
		{"valid ok", testQuota(100, 1000), ""},
		{"unbounded slow ok", testQuota(100, 0), ""},
		{"empty tenant", &TenantQuota{Fast: memsim.Tier0, Slow: memsim.Tier2, FastBudgetBytes: 1},
			"empty tenant name"},
		{"bad fast tier", &TenantQuota{Tenant: "a", Fast: memsim.TierID(9), Slow: memsim.Tier2, FastBudgetBytes: 1},
			"invalid fast tier 9"},
		{"bad slow tier", &TenantQuota{Tenant: "a", Fast: memsim.Tier0, Slow: memsim.TierID(-1), FastBudgetBytes: 1},
			"invalid slow tier -1"},
		{"same tiers", &TenantQuota{Tenant: "a", Fast: memsim.Tier2, Slow: memsim.Tier2, FastBudgetBytes: 1},
			"fast and slow tier are both Tier 2"},
		{"zero fast budget", &TenantQuota{Tenant: "a", Fast: memsim.Tier0, Slow: memsim.Tier2},
			"needs FastBudgetBytes > 0"},
		{"negative slow budget", &TenantQuota{Tenant: "a", Fast: memsim.Tier0, Slow: memsim.Tier2,
			FastBudgetBytes: 1, SlowBudgetBytes: -1},
			"negative SlowBudgetBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.q.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestQuotaGracefulSpill drives a manager past the fast budget and
// asserts placements degrade to the slow tier (with spill accounting)
// instead of failing — and that a removal returns budget to the fast
// tier for subsequent placements.
func TestQuotaGracefulSpill(t *testing.T) {
	q := testQuota(100, 1000)
	m := New(0)
	m.SetLandingTier(memsim.Tier0)
	m.SetQuota(q)

	id := func(p int) BlockID { return BlockID{RDD: 1, Partition: p} }
	m.Put(id(0), nil, 100, 1)
	if tier, _ := m.TierOf(id(0)); tier != memsim.Tier0 {
		t.Fatalf("block 0 on %s, want fast tier", tier)
	}
	m.Put(id(1), nil, 60, 1) // 100+60 > 100: spills
	if tier, _ := m.TierOf(id(1)); tier != memsim.Tier2 {
		t.Fatalf("block 1 on %s, want slow tier after spill", tier)
	}
	if u := q.Usage(); u.SpilledBlocks != 1 || u.SpilledBytes != 60 {
		t.Fatalf("spill accounting = %d blocks / %d B, want 1/60", u.SpilledBlocks, u.SpilledBytes)
	}
	if q.FastUsed() != 100 || q.SlowUsed() != 60 {
		t.Fatalf("usage fast=%d slow=%d, want 100/60", q.FastUsed(), q.SlowUsed())
	}
	if got := m.PlannedLandingTier(); got != memsim.Tier2 {
		t.Fatalf("planned landing %s, want slow tier while fast is full", got)
	}

	m.Remove(id(0))
	if q.FastUsed() != 0 {
		t.Fatalf("fast usage %d after remove, want 0", q.FastUsed())
	}
	if got := m.PlannedLandingTier(); got != memsim.Tier0 {
		t.Fatalf("planned landing %s after budget freed, want fast tier", got)
	}
	m.Put(id(2), nil, 90, 1)
	if tier, _ := m.TierOf(id(2)); tier != memsim.Tier0 {
		t.Fatalf("block 2 on %s, want fast tier after budget freed", tier)
	}
}

// TestQuotaHardExhaustion fills both budgets and asserts the typed
// error, with both ledgers snapshotted in it.
func TestQuotaHardExhaustion(t *testing.T) {
	q := testQuota(100, 150)
	m := New(0)
	m.SetQuota(q)
	m.Put(BlockID{RDD: 1, Partition: 0}, nil, 100, 1) // fills fast
	m.Put(BlockID{RDD: 1, Partition: 1}, nil, 150, 1) // fills slow
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overflowing both budgets did not panic")
		}
		qe, ok := r.(*QuotaExceededError)
		if !ok {
			t.Fatalf("panic %v (%T), want *QuotaExceededError", r, r)
		}
		var err error = qe
		var as *QuotaExceededError
		if !errors.As(err, &as) {
			t.Fatal("QuotaExceededError does not satisfy errors.As")
		}
		if qe.Tenant != "t0" || qe.Requested != 1 || qe.FastUsed != 100 || qe.SlowUsed != 150 {
			t.Fatalf("error fields %+v", qe)
		}
	}()
	m.Put(BlockID{RDD: 1, Partition: 2}, nil, 1, 1)
}

// TestQuotaEvictionReleases bounds the cache so LRU eviction fires and
// asserts evicted bytes return to the budget.
func TestQuotaEvictionReleases(t *testing.T) {
	q := testQuota(1000, 0)
	m := New(100) // cache holds at most 100 B
	m.SetLandingTier(memsim.Tier0)
	m.SetQuota(q)
	m.Put(BlockID{RDD: 1, Partition: 0}, nil, 80, 1)
	m.Put(BlockID{RDD: 1, Partition: 1}, nil, 80, 1) // evicts block 0
	if len(m.blocks) != 1 {
		t.Fatalf("cache holds %d blocks, want 1", len(m.blocks))
	}
	if q.FastUsed() != 80 {
		t.Fatalf("fast usage %d after eviction, want 80", q.FastUsed())
	}
	if _, bytes := m.RemoveAll(); bytes != 80 {
		t.Fatalf("RemoveAll dropped %d B, want 80", bytes)
	}
	if q.FastUsed() != 0 || q.SlowUsed() != 0 {
		t.Fatalf("usage fast=%d slow=%d after RemoveAll, want 0/0", q.FastUsed(), q.SlowUsed())
	}
}

// TestQuotaMigrationAdmission exercises SetResidency/CanMigrate under a
// bounded slow budget.
func TestQuotaMigrationAdmission(t *testing.T) {
	q := testQuota(100, 100)
	m := New(0)
	m.SetQuota(q)
	a := BlockID{RDD: 1, Partition: 0}
	m.Put(a, nil, 80, 1) // fast
	if !m.CanMigrate(a, memsim.Tier2) {
		t.Fatal("demotion within slow budget refused")
	}
	if !m.SetResidency(a, memsim.Tier2) {
		t.Fatal("admitted demotion did not apply")
	}
	if q.FastUsed() != 0 || q.SlowUsed() != 80 {
		t.Fatalf("usage fast=%d slow=%d after demotion, want 0/80", q.FastUsed(), q.SlowUsed())
	}
	b := BlockID{RDD: 1, Partition: 1}
	m.Put(b, nil, 100, 1) // fast again (budget freed)
	if m.CanMigrate(b, memsim.Tier2) {
		t.Fatal("demotion past the slow budget admitted")
	}
	if m.SetResidency(b, memsim.Tier2) {
		t.Fatal("refused demotion applied anyway")
	}
	if tier, _ := m.TierOf(b); tier != memsim.Tier0 {
		t.Fatalf("block b moved to %s despite refusal", tier)
	}
}

// TestQuotaJobSessions checks BeginJob/EndJob holdings attribution and
// ReleaseHoldings draining the ledger to zero.
func TestQuotaJobSessions(t *testing.T) {
	q := testQuota(100, 1000)
	m := New(0)
	m.SetQuota(q)
	q.BeginJob()
	m.Put(BlockID{RDD: 1, Partition: 0}, nil, 70, 1) // fast
	m.Put(BlockID{RDD: 1, Partition: 1}, nil, 70, 1) // spills
	m.Remove(BlockID{RDD: 1, Partition: 0})
	m.Put(BlockID{RDD: 1, Partition: 2}, nil, 40, 1) // fast
	h := q.EndJob()
	if h.Fast != 40 || h.Slow != 70 {
		t.Fatalf("holdings %+v, want fast=40 slow=70", h)
	}
	q.ReleaseHoldings(h)
	if q.FastUsed() != 0 || q.SlowUsed() != 0 {
		t.Fatalf("usage fast=%d slow=%d after release, want 0/0", q.FastUsed(), q.SlowUsed())
	}
}
