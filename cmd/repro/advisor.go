package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/workloads"
)

// The three subcommands of this file evaluate in query vocabulary, so
// they run through the placement-advisor engine (ctx.engine): the model
// families share observations, and a re-run — or a run sharing the -cache
// directory with another of them or with cmd/advisord — costs one cache
// read per distinct cell instead of a simulation.

// tierAdvisor demonstrates the §IV-F tier performance predictor: it
// trains a linear model on all-but-one workload (profiling runs on Tier 0
// plus observed times on every tier) and evaluates leave-one-out
// prediction error on the held-out workload. With -compare it also runs a
// leave-one-workload-out comparison of the linear model against a k-NN
// regressor over the same features — the "analytical models and/or ML
// techniques" the paper suggests.
func tierAdvisor(c *ctx) func() error {
	holdout := flagOf(c, "holdout", "pagerank", "workload to hold out of training", workloadName)
	seed, cache := c.seed(1), c.cache()
	compare := c.fs.Bool("compare", false, "also compare OLS vs k-NN with leave-one-out")
	return func() error {
		var training []string
		for _, n := range workloads.Names() {
			if n != *holdout {
				training = append(training, n)
			}
		}
		ev, footer := c.engine(*cache)
		model := core.TierAdvisor{Ev: ev}
		if err := model.Train(training, *seed); err != nil {
			return err
		}
		c.printf("trained on %v (R2 = %.3f)\n", training, model.R2())
		mape, err := model.Evaluate(*holdout, *seed)
		if err != nil {
			return err
		}
		c.printf("held-out %s: mean absolute prediction error %.1f%%\n\n", *holdout, mape*100)

		// Per size: the Tier 0 profile, then the observation on every tier.
		var qs []hibench.Query
		for _, size := range workloads.AllSizes() {
			for _, tier := range append([]memsim.TierID{memsim.Tier0}, memsim.AllTiers()...) {
				qs = append(qs, hibench.Query{Workload: *holdout, Size: size.String(),
					Placement: fmt.Sprintf("tier:%d", int(tier)), Seed: *seed})
			}
		}
		results, err := ev.Queries(qs)
		if err != nil {
			return err
		}
		t := core.Table{
			Title:   fmt.Sprintf("predicted vs observed execution time [s] for %s", *holdout),
			Headers: []string{"size", "tier", "predicted", "observed", "error %"},
		}
		var profile hibench.RunResult // ends as the large one
		for _, size := range workloads.AllSizes() {
			profile, results = results[0], results[1:]
			for i, tier := range memsim.AllTiers() {
				obs := results[i].Duration.Seconds()
				pred := model.Predict(profile, tier)
				t.AddRow(size.String(), tier.String(),
					fmt.Sprintf("%.4f", pred), fmt.Sprintf("%.4f", obs),
					fmt.Sprintf("%+.1f", (pred-obs)/obs*100))
			}
			results = results[len(memsim.AllTiers()):]
		}
		t.Render(c.stdout)
		best, predicted := model.Recommend(profile)
		c.printf("\nrecommended tier for %s/large: %s (predicted %.4fs)\n", *holdout, best, predicted)

		if *compare {
			c.println()
			scores, err := ev.ComparePredictors(nil, *seed)
			if err != nil {
				return err
			}
			core.PredictorTable(scores, nil).Render(c.stdout)
		}
		footer()
		return nil
	}
}

// placement runs the §IV-G extension study: instead of binding everything
// to one tier (the paper's membind), it routes heap, shuffle and RDD-cache
// traffic to different tiers and compares the deployments — quantifying
// how much of the all-DRAM performance a mixed DRAM/NVM placement can
// recover while moving most accesses onto cheap capacity.
func placement(c *ctx) func() error {
	names, size, seed, cache := c.workloads(workloads.Names()), c.size("large"), c.seed(1), c.cache()
	interleave := c.fs.Bool("interleave", false, "also sweep the DRAM:NVM heap interleave ratio")
	return func() error {
		ev, footer := c.engine(*cache)
		for _, w := range *names {
			study, err := ev.PlacementStudy(w, *size, *seed)
			if err != nil {
				return err
			}
			study.Table().Render(c.stdout)
			c.println()
			if *interleave {
				points, err := ev.InterleaveSweep(w, *size, nil, *seed)
				if err != nil {
					return err
				}
				core.InterleaveTable(w, *size, points).Render(c.stdout)
				c.println()
			}
		}
		c.println("reading the table: mixed placements that keep the hot category on")
		c.println("DRAM recover most of the all-DRAM performance while shifting the")
		c.println("bulk of accesses to DCPM capacity — the per-access-type tier choice")
		c.println("the paper's discussion (§IV-G) calls for.")
		footer()
		return nil
	}
}

// whatif re-runs the characterization with hypothetical capacity tiers in
// the Tier 2 slot — CXL-attached DRAM and next-generation NVM —
// quantifying how much of the paper's DRAM/DCPM gap future technologies
// would close (the direction its introduction and §IV-G sketch).
func whatif(c *ctx) func() error {
	size, names, seed, cache := c.size("large"), c.workloads(nil), c.seed(1), c.cache()
	return func() error {
		c.println("modeled capacity-tier technologies:")
		for _, sc := range memsim.CapacityScenarios() {
			c.printf("  %-9s %s (%.0f ns, %.1f GB/s)\n",
				sc.Name, sc.Description, sc.Spec.IdleLatencyNS, sc.Spec.BandwidthBytes/1e9)
		}
		c.println()
		ev, footer := c.engine(*cache)
		results, err := ev.WhatIf(*names, *size, *seed)
		if err != nil {
			return err
		}
		core.WhatIfTable(results).Render(c.stdout)
		footer()
		return nil
	}
}
