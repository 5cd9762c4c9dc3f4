// trace-explorer: run a wordcount over a generated corpus on the NVM tier
// with stage tracing enabled, print a text timeline and write a Chrome
// trace-event file you can open in chrome://tracing or Perfetto.
//
// Run with:
//
//	go run ./examples/trace-explorer [trace.json]
package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/rdd"
)

func main() {
	out := "trace.json"
	if len(os.Args) > 1 {
		out = os.Args[1]
	}

	conf := cluster.DefaultConf()
	conf.Binding = numa.BindingForTier(memsim.Tier2)
	app := cluster.New(conf)
	rec := app.EnableTracing()

	vocabulary := []string{"tier", "dram", "optane", "latency", "bandwidth",
		"shuffle", "executor", "spark", "memory", "numa"}
	corpus := rdd.Generate(app, "corpus", 5_000, 0, func(r *rand.Rand, _ int) string {
		words := make([]string, 8)
		for i := range words {
			words[i] = vocabulary[r.Intn(len(vocabulary))]
		}
		return strings.Join(words, " ")
	})
	words := rdd.FlatMap(corpus, strings.Fields)
	pairs := rdd.Map(words, func(w string) rdd.Pair[string, int] { return rdd.KV(w, 1) })
	counts := rdd.Collect(rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 0))

	fmt.Printf("wordcount on %s: %d distinct words, %.4fs virtual\n\n",
		app.Tier().Spec.Name, len(counts), app.Elapsed().Seconds())

	fmt.Println("stage timeline:")
	for _, s := range rec.Spans() {
		bar := strings.Repeat("#", 1+int(s.Duration().Seconds()*2000))
		if len(bar) > 48 {
			bar = bar[:48]
		}
		fmt.Printf("  %9.4fs  %-34s %4d tasks  %s\n",
			s.Start.Seconds(), s.Name, s.Tasks, bar)
	}

	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := rec.WriteChromeTrace(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s — open it in chrome://tracing or https://ui.perfetto.dev\n", out)
}
