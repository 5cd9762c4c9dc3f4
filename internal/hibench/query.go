package hibench

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/workloads"
)

// Query names one simulation cell in the string vocabulary that the
// what-if, placement and tier-advisor tools share with the placement
// advisor service: (workload, size, placement, policy, seed). It is the
// unit the advisor's persistent result cache is keyed on, so every field
// is a plain string or integer with one canonical spelling.
//
// Placement grammar:
//
//	tier:N        membind to tier N (the paper's numactl --membind)
//	<name>        a named executor.StandardPlacements deployment,
//	              e.g. "all-DRAM" or "heap-DRAM/shuffle-NVM"
//	interleave:F  heap traffic split DRAM/DCPM with NVM fraction F in [0,1]
//
// Policy names a memsim.CapacityScenarios entry swapped into the Tier 2
// slot ("optane", "cxl-dram", "nvm-gen2"); empty keeps the Table I
// testbed.
type Query struct {
	Workload  string `json:"workload"`
	Size      string `json:"size"`
	Placement string `json:"placement,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
}

// QueryRunner evaluates one cell. hibench.RunQuery is the direct,
// simulate-every-time implementation; the advisor engine provides a
// cached, deduplicated one with the same signature, which is how the
// experiment harnesses become thin clients of the service core.
type QueryRunner func(Query) (RunResult, error)

// Normalize fills defaults (placement "tier:0", seed 1), validates every
// field and canonicalizes spellings so that equal cells have equal keys.
func (q Query) Normalize() (Query, error) { return q.resolve(nil) }

// Key renders the canonical cache key of a normalized query. Callers must
// Normalize first; Key is a pure formatting step.
func (q Query) Key() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d", q.Workload, q.Size, q.Placement, q.Policy, q.Seed)
}

// String renders "pagerank/large place=tier:2 policy=cxl-dram seed=1".
func (q Query) String() string {
	s := fmt.Sprintf("%s/%s place=%s", q.Workload, q.Size, q.Placement)
	if q.Policy != "" {
		s += " policy=" + q.Policy
	}
	return fmt.Sprintf("%s seed=%d", s, q.Seed)
}

// Spec resolves a query into the experiment cell it names. The query is
// normalized first, so callers may pass shorthand spellings.
func (q Query) Spec() (RunSpec, error) {
	var spec RunSpec
	if _, err := q.resolve(&spec); err != nil {
		return RunSpec{}, err
	}
	return spec, nil
}

// resolve is Normalize and, when spec is non-nil, Spec in one pass: each
// field is parsed once, and the cell is built into spec from the parsed
// values. Normalize passes nil, so it allocates no placement or tier table.
func (q Query) resolve(spec *RunSpec) (Query, error) {
	if q.Workload == "" {
		return q, fmt.Errorf("hibench: query has no workload")
	}
	if _, err := workloads.ByName(q.Workload); err != nil {
		return q, err
	}
	size, err := workloads.ParseSize(q.Size)
	if err != nil {
		return q, err
	}
	if q.Placement == "" {
		q.Placement = "tier:0"
	}
	var tier memsim.TierID
	var placement *executor.Placement
	switch {
	case strings.HasPrefix(q.Placement, "tier:"):
		if tier, err = parseTierPlacement(q.Placement); err != nil {
			return q, err
		}
		q.Placement = fmt.Sprintf("tier:%d", int(tier))
	case strings.HasPrefix(q.Placement, "interleave:"):
		frac, err := parseInterleavePlacement(q.Placement)
		if err != nil {
			return q, err
		}
		q.Placement = fmt.Sprintf("interleave:%g", frac)
		if spec != nil {
			placement = &executor.Placement{
				Heap: memsim.Tier0, Shuffle: memsim.Tier0, Cache: memsim.Tier0,
				HeapSpill: memsim.Tier2, HeapSpillFrac: frac,
			}
		}
	default:
		p, ok := executor.PlacementByName(q.Placement)
		if !ok {
			return q, fmt.Errorf("hibench: unknown placement %q (want tier:N, interleave:F or a standard placement name)", q.Placement)
		}
		tier = p.Heap
		if spec != nil {
			p := p // a copy made only here, so Normalize leaves p on the stack
			placement = &p
		}
	}
	var tierSpecs *[memsim.NumTiers]memsim.TierSpec
	if q.Policy != "" {
		specs, err := memsim.ScenarioSpecs(q.Policy)
		if err != nil {
			return q, err
		}
		if spec != nil {
			tierSpecs = new([memsim.NumTiers]memsim.TierSpec)
			*tierSpecs = specs
		}
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if spec != nil {
		*spec = RunSpec{Workload: q.Workload, Size: size, Tier: tier, Placement: placement, TierSpecs: tierSpecs, Seed: q.Seed}
	}
	return q, nil
}

// RunQuery evaluates one cell on a fresh simulated cluster — the uncached
// QueryRunner.
func RunQuery(q Query) (RunResult, error) {
	spec, err := q.Spec()
	if err != nil {
		return RunResult{}, err
	}
	return Run(spec)
}

// NVMShare returns the fraction of a run's media accesses that the DCPM
// tiers served — the "how much cheap capacity did we actually use" axis
// of the placement studies.
func NVMShare(res RunResult) float64 {
	total := float64(res.Metrics.MediaReads + res.Metrics.MediaWrites)
	if total == 0 {
		return 0
	}
	return float64(res.NVMCounters.MediaReads+res.NVMCounters.MediaWrites) / total
}

func parseTierPlacement(s string) (memsim.TierID, error) {
	n, err := strconv.Atoi(strings.TrimPrefix(s, "tier:"))
	if err != nil || !memsim.TierID(n).Valid() {
		return 0, fmt.Errorf("hibench: invalid tier placement %q (want tier:0..tier:%d)", s, int(memsim.NumTiers)-1)
	}
	return memsim.TierID(n), nil
}

func parseInterleavePlacement(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimPrefix(s, "interleave:"), 64)
	if err != nil || !(f >= 0 && f <= 1) { // NaN parses and compares false with everything
		return 0, fmt.Errorf("hibench: invalid interleave placement %q (want interleave:F with F in [0,1])", s)
	}
	return f, nil
}
