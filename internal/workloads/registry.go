package workloads

import (
	"repro/internal/ml"
	"repro/internal/rdd"
)

// init publishes specialized sizers, hashers and pair sizers for every
// workload record type, so the hot shuffle paths resolve non-boxing
// measurement once per operation instead of calling SizeOf(any(v)) /
// HashAny(any(k)) per record. Every registration must agree exactly with
// SizeOf / HashAny — the parity tests in parity_test.go pin each one.
//
// Fixed-size registrations encode facts the generic fallback cannot see:
// TextRecord's nominal line is a constant 100 bytes and Rating a constant
// 24, so slice walks over them constant-fold; ClassTok, NodeFeatBin and
// []Rating don't implement Sized and land in SizeOf's default 32-byte
// estimate, which the fixed sizers mirror.
func init() {
	rdd.RegisterSizer(rdd.FixedSizer[TextRecord](100))
	rdd.RegisterSizer(rdd.FixedSizer[Rating](24))
	rdd.RegisterSizer(rdd.FixedSizer[ClassTok](32))
	rdd.RegisterSizer(rdd.FixedSizer[NodeFeatBin](32))
	rdd.RegisterSizer(rdd.FixedSizer[[]Rating](32))
	rdd.RegisterSized[Page]()
	rdd.RegisterSized[Example]()
	rdd.RegisterSized[WebPage]()
	rdd.RegisterSized[LDADoc]()
	rdd.RegisterSized[*ldaBatch]()
	rdd.RegisterSized[rdd.Two[[]int, float64]]()

	rdd.RegisterHashable[ClassTok]()
	rdd.RegisterHashable[NodeFeatBin]()
	rdd.RegisterHashable[TextRecord]()

	// Pair sizers for every concrete shuffle/materialization pair type,
	// composed after their element types so generic call sites that only
	// see the pair (Cache, Collect, Parallelize) resolve non-boxing too.
	rdd.RegisterPairSizer[string, TextRecord]()
	rdd.RegisterPairSizer[int, TextRecord]()
	rdd.RegisterPairSizer[string, int64]()
	rdd.RegisterPairSizer[int, int64]()
	rdd.RegisterPairSizer[ClassTok, int64]()
	rdd.RegisterPairSizer[int, Rating]()
	rdd.RegisterPairSizer[int, []Rating]()
	rdd.RegisterPairSizer[int, []float64]()
	rdd.RegisterPairSizer[int, float64]()
	rdd.RegisterPairSizer[int, []int]()
	rdd.RegisterPairSizer[int, rdd.Two[[]int, float64]]()
	rdd.RegisterPairSizer[NodeFeatBin, ml.BinStats]()
}
