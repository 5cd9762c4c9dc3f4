package workloads

import (
	"repro/internal/cluster"
	"repro/internal/rdd"
)

// repartitionParams uses Table II's 3.2KB / 3.2MB / 32MB inputs unscaled
// (they are small enough for the simulator) at 100 bytes per record.
type repartitionParams struct {
	Records int
}

var repartitionSizes = [NumSizes]repartitionParams{
	Tiny:  {Records: 32},      // 3.2 KB
	Small: {Records: 32_000},  // 3.2 MB
	Large: {Records: 320_000}, // 32 MB
}

// Repartition is HiBench's repartition micro benchmark: a pure shuffle of
// the input with no aggregation, stressing the shuffle write/read path
// (the most access-intensive pattern per byte of input).
type Repartition struct{}

// NewRepartition returns the workload.
func NewRepartition() *Repartition { return &Repartition{} }

// Name implements Workload.
func (w *Repartition) Name() string { return "repartition" }

// Category implements Workload.
func (w *Repartition) Category() Category { return Micro }

// Describe implements Workload.
func (w *Repartition) Describe(size Size) string {
	p := repartitionSizes[size]
	return fmtParams("records", p.Records, "recordBytes", 100)
}

// Run implements Workload.
func (w *Repartition) Run(app *cluster.App, size Size) Summary {
	p := repartitionSizes[size]
	data := textRecordsGen.Source(app, "repartition-input", struct{}{}, p.Records, 0)
	shuffled := rdd.Repartition(data, app.DefaultParallelism())
	bytes := rdd.SaveAsSink(shuffled)
	return Summary{Records: p.Records, Metric: float64(bytes), Note: "output_bytes"}
}
