package advisor

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/workloads"
)

// EngineVersion gates the result cache against behavioural changes that
// the configuration tables cannot express: bump it whenever the
// simulator's timing model, the executor's scheduling, or the workload
// generators change in a way that alters results for an unchanged
// configuration.
const EngineVersion = 1

// computeEngineHash derives the cache-invalidation fingerprint from the
// engine version and every configuration table a query resolves against:
// the NUMA topology, the tier specifications, the capacity scenarios, the
// standard placements, the workload roster and executor.DefaultCostModel,
// the cost model every cell is charged under. Any change to any of them
// changes the hash, which orphans (and thereby invalidates) every cached
// entry — the same discipline .simlintcache uses for analyzer results.
func computeEngineHash() string {
	h := sha256.New()
	writeFingerprint(h)
	return hex.EncodeToString(h.Sum(nil))
}

// writeFingerprint writes the text computeEngineHash digests. Only value
// types are serialized (with %+v over struct values, never pointers), so
// the fingerprint is a pure function of configuration content, stable
// across processes.
func writeFingerprint(h io.Writer) {
	fmt.Fprintf(h, "engine-version=%d\n", EngineVersion)
	fmt.Fprintf(h, "topology=%+v\n", numa.DefaultTopology())
	for i, spec := range memsim.DefaultSpecs() {
		fmt.Fprintf(h, "spec/default/%d=%+v\n", i, spec)
	}
	for _, sc := range memsim.CapacityScenarios() {
		fmt.Fprintf(h, "scenario/%s=%+v\n", sc.Name, sc.Spec)
	}
	for _, np := range executor.StandardPlacements() {
		fmt.Fprintf(h, "placement/%s=%+v\n", np.Name, np.P)
	}
	for _, name := range workloads.Names() {
		fmt.Fprintf(h, "workload=%s\n", name)
	}
	for _, size := range workloads.AllSizes() {
		fmt.Fprintf(h, "size=%s\n", size)
	}
	fmt.Fprintf(h, "cost-model=%+v\n", executor.DefaultCostModel())
}
