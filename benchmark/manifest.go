package main

import (
	"encoding/json"
	"io"
)

// runSeconds is the time box BENCHMARK.json asks the driver to pass as
// --seconds: five to eleven rounds per workload on the reference box.
const runSeconds = 20

// manifest is BENCHMARK.json: exactly the keys the benchmark contract
// prescribes, generated from the catalog so the two cannot drift
// (bash benchmark/run.sh -manifest > BENCHMARK.json).
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestNamed  `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs() {
		m.Workloads = append(m.Workloads, manifestNamed{Name: w.name, Why: w.why})
	}
	for _, s := range endToEnd() {
		bound := s.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: s.name, Unit: s.unit, Better: s.better, Bound: &bound})
	}
	for _, s := range perLayer() {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: s.name, Unit: s.unit, Better: s.better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}
