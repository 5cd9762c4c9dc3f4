package hibench

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/memsim"
	"repro/internal/rdd"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

// checkingSlot makes the slot's stores checksum their pages and empties
// the slot, for the length of the test.
func checkingSlot(t *testing.T) {
	t.Helper()
	clearSlot := func() {
		lastInput.mu.Lock()
		lastInput.group, lastInput.gen = InputGroup{}, nil
		lastInput.mu.Unlock()
	}
	clearSlot()
	checkSlotPages = true
	t.Cleanup(func() {
		checkSlotPages = false
		clearSlot()
	})
}

// slot returns the slot's group and store.
func slot() (InputGroup, *rdd.GenStore) {
	lastInput.mu.Lock()
	defer lastInput.mu.Unlock()
	return lastInput.group, lastInput.gen
}

// slotSweep is every workload at tiny on 1x40 and 4x10, each untiered,
// static, and watermark and forecast at a quarter of the workload's cache
// footprint, on cmd/repro autotier's DRAM-constrained placement. A chunk
// is one layout's four cells of one workload, and every workload's 1x40
// chunk comes before every 4x10 one, so each chunk's first run replaces
// the slot, the three after it hit, and each 4x10 chunk comes back to a
// group the slot has dropped.
func slotSweep(t *testing.T) [][]RunSpec {
	t.Helper()
	layouts := [][2]int{{1, 40}, {4, 10}}
	byWorkload := make(map[string][][]RunSpec)
	for _, w := range workloads.Names() {
		base := RunSpec{Workload: w, Size: workloads.Tiny, Tier: memsim.Tier0, Placement: dcpmCachePlacement()}
		static := tiering.DefaultConfig(tiering.Static)
		st := base
		st.Tiering = &static
		ref, err := RunShared(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		budget := max(ref.Engine["tiering.occupancy.tier3"]/4, 4<<10)
		for _, l := range layouts {
			var chunk []RunSpec
			for _, pol := range []tiering.PolicyKind{"", tiering.Static, tiering.Watermark, tiering.Forecast} {
				s := base
				s.Executors, s.CoresPerExecutor = l[0], l[1]
				if pol != "" {
					cfg := tiering.DefaultConfig(pol)
					if pol != tiering.Static {
						cfg.Slow = memsim.Tier3
						cfg.FastBudgetBytes = budget
					}
					s.Tiering = &cfg
				}
				chunk = append(chunk, s)
			}
			byWorkload[w] = append(byWorkload[w], chunk)
		}
	}
	var chunks [][]RunSpec
	for l := range layouts {
		for _, w := range workloads.Names() {
			chunks = append(chunks, byWorkload[w][l])
		}
	}
	return chunks
}

// TestRunSlotMatchesColdRuns: Run keeps the last input group's store
// across runs, and every result is exactly the one a cold store gives.
// A run of the slot's group reads the kept store; a run of another group
// replaces it, after which the old store is unreachable, so at most one
// group's pages outlive a Run. No run writes a kept page.
func TestRunSlotMatchesColdRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in 16 cells, twice each")
	}
	checkingSlot(t)
	var dropped []weak.Pointer[rdd.GenStore]
	var hits, misses int
	for _, chunk := range slotSweep(t) {
		for _, spec := range chunk {
			want, err := RunShared(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			before, kept := slot()
			got, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: Run differs from a cold RunShared", spec, spec.Tiering)
			}
			group, gen := slot()
			if group != spec.InputGroup() || gen == nil {
				t.Fatalf("%s: the slot holds %+v, want %+v", spec, group, spec.InputGroup())
			}
			switch {
			case before == group && gen == kept:
				hits++
			case before != group && gen != kept:
				misses++
				if kept != nil {
					if err := kept.Verify(); err != nil {
						t.Error(err)
					}
					dropped = append(dropped, weak.Make(kept))
				}
			default:
				t.Fatalf("%s: the slot's store %p -> %p for group %+v -> %+v", spec, kept, gen, before, group)
			}
		}
	}
	_, gen := slot()
	if err := gen.Verify(); err != nil {
		t.Error(err)
	}
	counts, _ := gen.Counts()
	derived, _ := gen.DerivedCounts()
	for _, c := range append(counts, derived...) {
		if c.Filled == 0 || 4*c.Filled > c.Asked {
			t.Errorf("%s: %d filled of %d asked; want each page filled once for the chunk's four runs", c.Gen, c.Filled, c.Asked)
		}
	}
	if want := 2 * len(workloads.Names()); misses != want || hits != 3*want {
		t.Errorf("%d runs hit the slot and %d replaced it, want %d and %d", hits, misses, 3*want, want)
	}
	runtime.GC()
	for i, p := range dropped {
		if p.Value() != nil {
			t.Errorf("replaced store %d is still reachable", i)
		}
	}
}

// TestRunSlotConcurrent: four goroutines run two groups' cells
// alternately, so the slot is replaced under concurrent runs that have
// captured the store it held; every result is the sequential one.
func TestRunSlotConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 cells")
	}
	checkingSlot(t)
	var specs []RunSpec
	for i := 0; i < 8; i++ {
		specs = append(specs,
			RunSpec{Workload: "lda", Size: workloads.Tiny, Tier: memsim.Tier2, Executors: 1 + i%2*3, CoresPerExecutor: 40 - i%2*30},
			RunSpec{Workload: "sort", Size: workloads.Tiny, Tier: memsim.Tier0, BandwidthCap: 0.1 * float64(1+i%4)},
		)
	}
	want := make([]RunResult, len(specs))
	for i, s := range specs {
		var err error
		if want[i], err = RunShared(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]RunResult, len(specs))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(specs); i += 4 {
				res, err := Run(specs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = res
			}
		}()
	}
	wg.Wait()
	for i := range specs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: a concurrent Run differs from the sequential cold run", specs[i])
		}
	}
	if _, gen := slot(); gen != nil {
		if err := gen.Verify(); err != nil {
			t.Error(err)
		}
	}
}
