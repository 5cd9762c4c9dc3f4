package main

import (
	"encoding/json"

	"repro/internal/hibench"
)

// cell runs one experiment cell — one workload at one size under one
// configuration — and prints its full measurement record, as JSON with
// -json for scripting.
func cell(c *ctx) func() error {
	workload := flagOf(c, "workload", "pagerank", "workload name (Table II)", workloadName)
	size, tier, seed := c.size("small"), c.tier("0"), c.seed(1)
	executors := flagOf(c, "executors", "0", "executor count (0 = default 1)", atLeast(0))
	cores := flagOf(c, "cores", "0", "cores per executor (0 = default 40)", atLeast(0))
	capFrac := flagOf(c, "cap", "0", "MBA bandwidth cap fraction (0 = uncapped)", fraction)
	tasks := flagOf(c, "tasks", "0", "phase-1 compute workers (0 = all cores, 1 = sequential; virtual time is identical)", atLeast(0))
	asJSON := c.fs.Bool("json", false, "emit the record as JSON")
	profiled := c.profiled()
	return func() error {
		var res hibench.RunResult
		err := profiled(func() (err error) {
			res, err = hibench.Run(hibench.RunSpec{
				Workload: *workload, Size: *size, Tier: *tier, Seed: *seed,
				Executors: *executors, CoresPerExecutor: *cores, BandwidthCap: *capFrac, TaskParallelism: *tasks,
			})
			return err
		})
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(c.stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(map[string]any{ // a map, so the keys print sorted
				"spec":             res.Spec.String(),
				"duration_s":       res.Duration.Seconds(),
				"summary":          res.Summary.String(),
				"media_reads":      res.Metrics.MediaReads,
				"media_writes":     res.Metrics.MediaWrites,
				"write_ratio":      res.Metrics.WriteRatio(),
				"shuffle_bytes":    res.Metrics.ShuffleRead,
				"stages":           res.Metrics.Stages,
				"tasks":            res.Metrics.Tasks,
				"energy_j":         res.Metrics.EnergyJ,
				"dram_energy_j":    res.DRAMEnergy.TotalJ,
				"dcpm_energy_j":    res.DCPMEnergy.TotalJ,
				"max_mem_sharers":  res.Metrics.MaxSharers,
				"cpu_seconds":      res.Metrics.CPUNS / 1e9,
				"stall_seconds":    res.Metrics.StallNS / 1e9,
				"nvm_media_reads":  res.NVMCounters.MediaReads,
				"nvm_media_writes": res.NVMCounters.MediaWrites,
			})
		}
		c.printf("%s\n", res.Spec)
		c.printf("  execution time  %.4fs\n", res.Duration.Seconds())
		c.printf("  verification    %s\n", res.Summary)
		c.printf("  media accesses  %d reads / %d writes (write ratio %.2f)\n",
			res.Metrics.MediaReads, res.Metrics.MediaWrites, res.Metrics.WriteRatio())
		c.printf("  shuffle bytes   %d across %d stages / %d tasks\n",
			res.Metrics.ShuffleRead, res.Metrics.Stages, res.Metrics.Tasks)
		c.printf("  bound energy    %.2f J (DRAM group %.2f J, DCPM group %.2f J)\n",
			res.Metrics.EnergyJ, res.DRAMEnergy.TotalJ, res.DCPMEnergy.TotalJ)
		return nil
	}
}
