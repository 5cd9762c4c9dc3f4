package multitenant

import (
	"sort"
	"strconv"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Job is one generated submission of the workload mix.
type Job struct {
	// Tenant names the submitter; TenantIdx is its index in the conf.
	Tenant    string
	TenantIdx int
	// Seq is the job's 0-based sequence number within its tenant.
	Seq int
	// Workload and Size select the HiBench cell the job runs.
	Workload string
	Size     workloads.Size
	// Arrival is the virtual submission time.
	Arrival sim.Time
	// DemandBytes is the DRAM demand the job declares to the admission
	// controller.
	DemandBytes int64
	// Seed drives the job's application (derived from the mix seed, so
	// every job computes different data deterministically).
	Seed int64
	// Faults is the job's deterministic fault plan; nil injects nothing.
	Faults *faults.Plan
}

// String renders "a/0 sort@tiny".
func (j Job) String() string {
	return j.Tenant + "/" + strconv.Itoa(j.Seq) + " " + j.Workload + "@" + j.Size.String()
}

// demandTable declares each workload's nominal DRAM demand per size
// (tiny, small, large): a coarse working-set model — cache footprint plus
// heap headroom — sized so a handful of concurrent jobs oversubscribe a
// megabytes-scale DRAM budget in experiments.
var demandTable = map[string][3]int64{
	"sort":        {256 << 10, 512 << 10, 4 << 20},
	"repartition": {256 << 10, 512 << 10, 4 << 20},
	"als":         {288 << 10, 576 << 10, 2 << 20},
	"bayes":       {768 << 10, 1 << 20, 8 << 20},
	"rf":          {272 << 10, 640 << 10, 4 << 20},
	"lda":         {6 << 20, 16 << 20, 64 << 20},
	"pagerank":    {288 << 10, 640 << 10, 6 << 20},
}

// EstimateDemand returns the nominal declared DRAM demand of one cell.
func EstimateDemand(workload string, size workloads.Size) int64 {
	base, ok := demandTable[workload]
	if !ok {
		return 1 << 20
	}
	i := int(size)
	if i < 0 || i >= len(base) {
		i = len(base) - 1
	}
	return base[i]
}

// GenerateMix draws the seeded workload mix: every tenant submits its
// configured number of jobs, each with a workload drawn from the catalog,
// an arrival uniform over the window and a declared demand jittered
// around the nominal estimate. The result is sorted by (arrival, tenant,
// seq) — the deterministic submission order the engine replays. Same
// (conf, seed) in, byte-identical mix out.
func GenerateMix(c Conf) []Job {
	c = c.withDefaults()
	var mix []Job
	for ti, t := range c.Tenants {
		for s := 0; s < t.Jobs; s++ {
			pick := faults.Mix(uint64(c.Seed), 0x77a1, uint64(ti), uint64(s))
			w := c.Workloads[pick%uint64(len(c.Workloads))]
			arrival := sim.Time(float64(arrivalWindow) *
				faults.Uniform(faults.Mix(uint64(c.Seed), 0xa221, uint64(ti), uint64(s))))
			jitter := 0.8 + 0.45*faults.Uniform(faults.Mix(uint64(c.Seed), 0xd3f0, uint64(ti), uint64(s)))
			demand := int64(float64(EstimateDemand(w, c.Size)) * jitter)
			job := Job{
				Tenant: t.Name, TenantIdx: ti, Seq: s,
				Workload: w, Size: c.Size,
				Arrival:     arrival,
				DemandBytes: demand,
				Seed:        int64(faults.Mix(uint64(c.Seed), 0x5eed, uint64(ti), uint64(s)) >> 1),
			}
			if job.Seed == 0 {
				job.Seed = 1
			}
			if c.Faults != nil {
				job.Faults = c.Faults(ti, s)
			}
			mix = append(mix, job)
		}
	}
	sort.SliceStable(mix, func(i, j int) bool {
		if mix[i].Arrival != mix[j].Arrival {
			return mix[i].Arrival < mix[j].Arrival
		}
		if mix[i].TenantIdx != mix[j].TenantIdx {
			return mix[i].TenantIdx < mix[j].TenantIdx
		}
		return mix[i].Seq < mix[j].Seq
	})
	return mix
}
