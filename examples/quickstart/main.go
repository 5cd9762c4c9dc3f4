// Quickstart: build a tiny Spark-like application on the simulated
// multi-tier machine, run a classic word-count, and compare its execution
// time when the executors' memory is bound to local DRAM (Tier 0) versus
// remote Optane DCPM (Tier 3).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cluster"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/rdd"
	"repro/internal/sim"
)

// wordCount runs the canonical example on an application bound to the
// given memory tier and returns (distinct words, virtual execution time).
func wordCount(tier memsim.TierID) (int, sim.Time) {
	conf := cluster.DefaultConf()
	conf.Binding = numa.BindingForTier(tier)
	app := cluster.New(conf)

	vocabulary := []string{"memory", "tier", "dram", "optane", "spark",
		"shuffle", "executor", "latency", "bandwidth", "numa"}
	lines := rdd.Generate(app, "lines", 20_000, 0, func(r *rand.Rand, _ int) string {
		words := make([]string, 6)
		for i := range words {
			words[i] = vocabulary[r.Intn(len(vocabulary))]
		}
		return strings.Join(words, " ")
	})

	words := rdd.FlatMap(lines, func(dst []string, line string) []string {
		return append(dst, strings.Fields(line)...)
	})
	pairs := rdd.Map(words, func(w string) rdd.Pair[string, int] { return rdd.KV(w, 1) })
	counts := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 0)

	distinct := rdd.Count(counts)
	return distinct, app.Elapsed()
}

func main() {
	fmt.Println("word-count on the simulated DRAM/NVM tiered machine")
	fmt.Println()
	base := sim.Time(0)
	for _, tier := range memsim.AllTiers() {
		distinct, elapsed := wordCount(tier)
		if tier == memsim.Tier0 {
			base = elapsed
		}
		fmt.Printf("  %-7s (%-11s): %8.4fs  (%.2fx vs Tier 0, %d distinct words)\n",
			tier, memsim.DefaultSpecs()[tier].Name, elapsed.Seconds(),
			float64(elapsed)/float64(base), distinct)
	}
	fmt.Println()
	fmt.Println("the same job, the same data — only the numactl membind changed.")
}
