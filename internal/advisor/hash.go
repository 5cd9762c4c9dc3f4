package advisor

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"strings"

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
// standard placements, the workload roster, executor.DefaultCostModel
// (the cost model every cell is charged under) and the shape of Result,
// which stored records and bodies follow. Any change to any of them
// changes the hash, which orphans (and thereby invalidates) every cached
// entry.
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
	fmt.Fprintf(h, "result-shape=%s\n", resultShape)
}

// resultShape digests Result's wire shape, once: adding, removing,
// retyping or re-tagging a field anywhere under Result changes the engine
// hash, so entries rendered for the old shape are orphaned without anyone
// remembering to bump a constant — and opening an engine hashes 64 bytes
// more for it, not the whole field list.
var resultShape = func() string {
	sum := sha256.Sum256([]byte(typeShape(reflect.TypeOf(Result{}))))
	return hex.EncodeToString(sum[:])
}()

// typeShape renders a struct type as "path kind `json tag`;" per leaf, in
// declaration order, descending into nested structs.
func typeShape(t reflect.Type) string {
	var b strings.Builder
	var walk func(path string, t reflect.Type)
	walk = func(path string, t reflect.Type) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := path + f.Name
			if f.Type.Kind() == reflect.Struct {
				fmt.Fprintf(&b, "%s{%s};", name, f.Tag.Get("json"))
				walk(name+".", f.Type)
				continue
			}
			fmt.Fprintf(&b, "%s %s `%s`;", name, f.Type.Kind(), f.Tag.Get("json"))
		}
	}
	walk("", t)
	return b.String()
}
