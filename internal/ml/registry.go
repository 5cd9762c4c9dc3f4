package ml

import "repro/internal/rdd"

// init publishes specialized sizers for every ml record type that crosses
// an RDD materialization point, so the engine's charge accounting measures
// them without per-record interface boxing. Each registration must agree
// exactly with rdd.SizeOf for its type (see the parity tests in
// internal/workloads); kernel state types implement Sized, so agreement
// is by construction.
func init() {
	rdd.RegisterSized[BinStats]()
	rdd.RegisterSized[*LDAState]()
	rdd.RegisterSized[*LDADelta]()
	rdd.RegisterSized[*Document]()
}
