package workloads

import (
	"repro/internal/cluster"
	"repro/internal/rdd"
)

// sortParams scales Table II's 32KB / 320MB / 3.2GB text inputs down 100x
// at 100 bytes per record.
type sortParams struct {
	Records int
}

var sortSizes = [NumSizes]sortParams{
	Tiny:  {Records: 320},     // ~32 KB / 100
	Small: {Records: 32_000},  // ~3.2 MB (320 MB / 100)
	Large: {Records: 320_000}, // ~32 MB (3.2 GB / 100)
}

// Sort is HiBench's sort: generate text lines, totally sort them by key
// (sampling job + range-partitioned shuffle + per-partition sort) and
// write the result out.
type Sort struct{}

// NewSort returns the workload.
func NewSort() *Sort { return &Sort{} }

// Name implements Workload.
func (s *Sort) Name() string { return "sort" }

// Category implements Workload.
func (s *Sort) Category() Category { return Micro }

// Describe implements Workload.
func (s *Sort) Describe(size Size) string {
	p := sortSizes[size]
	return fmtParams("records", p.Records, "recordBytes", 100)
}

// Run implements Workload.
func (s *Sort) Run(app *cluster.App, size Size) Summary {
	p := sortSizes[size]
	data := textRecordsGen.Source(app, "sort-input", struct{}{}, p.Records, 0)
	sorted := rdd.SortBy(data, func(t TextRecord) string { return t.Key }, 0)
	bytes := rdd.SaveAsSink(sorted)
	return Summary{Records: p.Records, Metric: float64(bytes), Note: "output_bytes"}
}
