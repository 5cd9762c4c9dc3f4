// Package workloads implements the seven HiBench applications the paper
// studies (Table II) on top of the RDD engine: sort and repartition
// micro-benchmarks, the als/bayes/rf/lda machine-learning workloads and
// the pagerank websearch workload, each with tiny/small/large datasets.
//
// Dataset scaling: the engine is a simulator, so dataset sizes are scaled
// down from Table II (by ~100x for the byte-sized micro benchmarks, ~10x
// for the ML/websearch record counts, with pagerank's 1:100:10000 spread
// compressed to 1:10:100 to stay tractable). Ratios across tiny/small/
// large and across workloads are preserved, which is what the paper's
// shape results depend on. The exact per-size parameters are in each
// workload's Params table and surfaced by Describe.
package workloads

import (
	"fmt"

	"repro/internal/cluster"
)

// Size selects the input scale of a workload (Table II columns).
type Size int

// The three HiBench dataset profiles.
const (
	Tiny Size = iota
	Small
	Large
	NumSizes
)

// String returns "tiny", "small" or "large".
func (s Size) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("size(%d)", int(s))
	}
}

// AllSizes lists the sizes in order.
func AllSizes() []Size { return []Size{Tiny, Small, Large} }

// ParseSize maps a flag string ("tiny", "small", "large") to a Size —
// the one canonical home for the parsing every command-line driver needs.
func ParseSize(s string) (Size, error) {
	for _, size := range AllSizes() {
		if s == size.String() {
			return size, nil
		}
	}
	return 0, fmt.Errorf("workloads: unknown size %q (valid: tiny, small, large)", s)
}

// Category is the paper's workload taxonomy.
type Category string

// The three categories of Table II.
const (
	Micro           Category = "micro"
	MachineLearning Category = "ml"
	Websearch       Category = "websearch"
)

// Summary is the verifiable outcome of one workload run.
type Summary struct {
	// Records is the number of output records (or examples scored).
	Records int
	// Metric is a workload-specific quality/consistency figure:
	// accuracy for classifiers, RMSE for ALS, rank mass for pagerank,
	// output bytes for the micro benchmarks.
	Metric float64
	// Note names the metric.
	Note string
}

// String renders "records=N accuracy=0.93".
func (s Summary) String() string {
	return fmt.Sprintf("records=%d %s=%.4g", s.Records, s.Note, s.Metric)
}

// Workload is one HiBench application.
type Workload interface {
	// Name is the paper's abbreviation (Table II): sort, repartition,
	// als, bayes, rf, lda, pagerank.
	Name() string
	// Category classifies the workload.
	Category() Category
	// Describe reports the (scaled) dataset parameters for a size.
	Describe(size Size) string
	// Run executes the workload on the application and returns a
	// verification summary. Run must be deterministic for a fixed
	// (app seed, size).
	Run(app *cluster.App, size Size) Summary
}

// All returns the seven workloads in Table II order.
func All() []Workload {
	return []Workload{
		NewSort(),
		NewRepartition(),
		NewALS(),
		NewBayes(),
		NewRandomForest(),
		NewLDA(),
		NewPageRank(),
	}
}

// Names returns the workload abbreviations in Table II order.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name())
	}
	return out
}

// ByName returns the named workload or an error listing valid names.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (valid: %v)", name, Names())
}
