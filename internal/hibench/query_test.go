package hibench

import (
	"testing"

	"repro/internal/memsim"
)

func TestQueryNormalizeDefaultsAndCanonicalization(t *testing.T) {
	q, err := Query{Workload: "pagerank", Size: "tiny"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if q.Placement != "tier:0" || q.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", q)
	}

	// Equivalent spellings converge to one canonical key.
	a, err := Query{Workload: "lda", Size: "tiny", Placement: "interleave:0.50", Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Query{Workload: "lda", Size: "tiny", Placement: "interleave:0.5"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent interleave spellings keyed differently: %q vs %q", a.Key(), b.Key())
	}
}

func TestQueryNormalizeRejectsInvalid(t *testing.T) {
	for name, q := range map[string]Query{
		"no-workload":      {Size: "tiny"},
		"bad-workload":     {Workload: "bogus", Size: "tiny"},
		"bad-size":         {Workload: "pagerank", Size: "huge"},
		"bad-tier":         {Workload: "pagerank", Size: "tiny", Placement: "tier:7"},
		"bad-interleave":   {Workload: "pagerank", Size: "tiny", Placement: "interleave:1.5"},
		"nan-interleave":   {Workload: "pagerank", Size: "tiny", Placement: "interleave:NaN"},
		"bad-name":         {Workload: "pagerank", Size: "tiny", Placement: "all-Optane"},
		"bad-policy":       {Workload: "pagerank", Size: "tiny", Policy: "dram-gen9"},
		"tier-not-numeric": {Workload: "pagerank", Size: "tiny", Placement: "tier:two"},
	} {
		if _, err := q.Normalize(); err == nil {
			t.Errorf("%s: Normalize(%+v) succeeded", name, q)
		}
	}
}

func TestQueryKeyShape(t *testing.T) {
	q := Query{Workload: "sort", Size: "large", Placement: "tier:2", Policy: "cxl-dram", Seed: 3}
	if got, want := q.Key(), "sort|large|tier:2|cxl-dram|3"; got != want {
		t.Fatalf("Key() = %q; want %q", got, want)
	}
}

func TestQuerySpecResolvesPlacements(t *testing.T) {
	spec, err := Query{Workload: "pagerank", Size: "tiny", Placement: "tier:2"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Tier != memsim.Tier2 || spec.Placement != nil || spec.TierSpecs != nil {
		t.Fatalf("membind spec wrong: %+v", spec)
	}

	spec, err = Query{Workload: "pagerank", Size: "tiny", Placement: "heap-DRAM/shuffle-NVM"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Placement == nil || spec.Placement.Heap != memsim.Tier0 || spec.Placement.Shuffle != memsim.Tier2 {
		t.Fatalf("named placement spec wrong: %+v", spec.Placement)
	}

	spec, err = Query{Workload: "pagerank", Size: "tiny", Placement: "interleave:0.25"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Placement == nil || spec.Placement.HeapSpillFrac != 0.25 || spec.Placement.HeapSpill != memsim.Tier2 {
		t.Fatalf("interleave spec wrong: %+v", spec.Placement)
	}
}

func TestQuerySpecResolvesPolicy(t *testing.T) {
	spec, err := Query{Workload: "pagerank", Size: "tiny", Placement: "tier:2", Policy: "cxl-dram"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.TierSpecs == nil {
		t.Fatal("policy did not install scenario tier specs")
	}
	want, err := memsim.ScenarioSpecs("cxl-dram")
	if err != nil {
		t.Fatal(err)
	}
	if *spec.TierSpecs != want {
		t.Fatalf("scenario specs differ:\n got %+v\nwant %+v", spec.TierSpecs[memsim.Tier2], want[memsim.Tier2])
	}
	if spec.TierSpecs[memsim.Tier2].Kind != memsim.DRAM {
		t.Fatal("cxl-dram scenario did not swap a DRAM device into the Tier 2 slot")
	}
}

// TestRunQueryMatchesRun pins the equivalence the thin clients rely on:
// evaluating a cell through the query plane is the same simulation as
// building the RunSpec by hand.
func TestRunQueryMatchesRun(t *testing.T) {
	q := Query{Workload: "sort", Size: "tiny", Placement: "tier:2", Seed: 1}
	viaQuery, err := RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := q.Spec()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if viaQuery.Duration != direct.Duration {
		t.Fatalf("query plane duration %v != direct %v", viaQuery.Duration, direct.Duration)
	}
	if viaQuery.Metrics != direct.Metrics {
		t.Fatal("query plane metrics differ from direct run")
	}
}

func TestNVMShare(t *testing.T) {
	var res RunResult
	if got := NVMShare(res); got != 0 {
		t.Fatalf("NVMShare of zero traffic = %v; want 0", got)
	}
	res.Metrics.MediaReads = 80
	res.Metrics.MediaWrites = 20
	res.NVMCounters.MediaReads = 30
	res.NVMCounters.MediaWrites = 20
	if got := NVMShare(res); got != 0.5 {
		t.Fatalf("NVMShare = %v; want 0.5", got)
	}
}

// FuzzQueryNormalize feeds Normalize what an advisord request body can
// hold. It never panics; what it accepts is a fixed point (normalizing
// again changes nothing, so Key is stable) and names a cell: Spec resolves
// it, with an interleave fraction inside [0, 1].
func FuzzQueryNormalize(f *testing.F) {
	for _, q := range []Query{
		{Workload: "pagerank", Size: "tiny"},
		{Workload: "lda", Size: "large", Placement: "interleave:0.50", Policy: "cxl-dram", Seed: 7},
		{Workload: "sort", Size: "small", Placement: "tier:+3", Seed: -1},
		{Workload: "rf", Size: "tiny", Placement: "cache-NVM"},
		{Workload: "als", Size: "tiny", Placement: "interleave:NaN"},
		{Workload: "bayes", Size: "tiny", Placement: "interleave:-0"},
		{Workload: "bayes", Size: "tiny", Placement: "interleave:0x1p-1"},
		{Workload: "sort", Size: "tiny", Placement: "tier:7"},
		{Size: "tiny", Placement: "tier:"},
	} {
		f.Add(q.Workload, q.Size, q.Placement, q.Policy, q.Seed)
	}
	f.Fuzz(func(t *testing.T, workload, size, placement, policy string, seed int64) {
		q := Query{Workload: workload, Size: size, Placement: placement, Policy: policy, Seed: seed}
		n, err := q.Normalize()
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil || again != n || again.Key() != n.Key() {
			t.Fatalf("Normalize(%+v) = %+v is not a fixed point: normalizing again gives %+v, %v", q, n, again, err)
		}
		spec, err := n.Spec()
		if err != nil {
			t.Fatalf("normalized query %+v names no cell: %v", n, err)
		}
		if p := spec.Placement; p != nil && !(p.HeapSpillFrac >= 0 && p.HeapSpillFrac <= 1) {
			t.Fatalf("normalized query %+v spills a fraction %v of the heap", n, p.HeapSpillFrac)
		}
	})
}
