package hibench

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

// Every RunSpec field is in exactly one of three classes; a field added
// later lands in "keyed" by default and fails TestKeyCoversEveryField
// until Key folds it in or it is listed here with its reason.
var (
	// hostOnly fields move host time only, never a virtual result.
	hostOnly = map[string]bool{"TaskParallelism": true}
	// unkeyable fields make Key report ok=false: the cell is never memoised.
	unkeyable = map[string]bool{"Faults": true, "Tiering": true, "Quota": true}
)

// perturb changes v to a value that names a different cell: strings grow,
// numbers move (integers by 7, past every default a zero stands for), and
// pointers are pointed at a fully perturbed value (a fresh zero Placement
// would be the uniform membind of Tier 0 — the same cell as nil).
func perturb(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		perturb(t, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(t, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturb(t, v.Index(i))
		}
	default:
		t.Fatalf("perturb: unhandled kind %s; teach the guard about it", v.Kind())
	}
}

// The memo cannot lie: walking the struct by reflection, every field
// either changes the key when it changes, or is declared host-only (key
// unchanged) or unkeyable (ok turns false).
func TestKeyCoversEveryField(t *testing.T) {
	base := RunSpec{Workload: "sort", Size: workloads.Small, Tier: memsim.Tier2}
	baseKey, ok := base.Key()
	if !ok {
		t.Fatal("plain membind spec reported unkeyable")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		spec := base
		field := reflect.ValueOf(&spec).Elem().Field(i)
		if unkeyable[name] {
			field.Set(reflect.New(field.Type().Elem()))
			if _, ok := spec.Key(); ok {
				t.Errorf("%s: set, yet Key still reports the cell keyable", name)
			}
			continue
		}
		perturb(t, field)
		key, ok := spec.Key()
		switch {
		case !ok:
			t.Errorf("%s: perturbing it made the cell unkeyable; list it in unkeyable", name)
		case hostOnly[name] && key != baseKey:
			t.Errorf("%s: declared host-only but it moves the key", name)
		case !hostOnly[name] && key == baseKey:
			t.Errorf("%s: neither folded into Key nor listed as host-only/unkeyable", name)
		}
	}
	for name := range hostOnly {
		if _, found := typ.FieldByName(name); !found {
			t.Errorf("hostOnly lists %s, which RunSpec no longer has", name)
		}
	}
	for name := range unkeyable {
		if _, found := typ.FieldByName(name); !found {
			t.Errorf("unkeyable lists %s, which RunSpec no longer has", name)
		}
	}
}

// respell returns a spec that names the same cell as s in every other
// spelling Key folds: defaults written out, nil Placement/TierSpecs as
// explicit values behind fresh pointers, uncapped as cap 1.0, another
// phase-1 worker count.
func respell(s RunSpec) RunSpec {
	d := s.WithDefaults()
	if d.BandwidthCap == 0 {
		d.BandwidthCap = 1
	}
	placement := executor.UniformPlacement(d.Tier)
	if d.Placement != nil {
		placement = *d.Placement
	}
	d.Placement = &placement
	specs := memsim.DefaultSpecs()
	if d.TierSpecs != nil {
		specs = *d.TierSpecs
	}
	d.TierSpecs = &specs
	d.TaskParallelism = 3
	return d
}

// keyedSpec is a random tiny cell drawn over the keyed fields.
type keyedSpec struct{ RunSpec }

func (keyedSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	names := workloads.Names()
	s := RunSpec{
		Workload:     names[r.Intn(len(names))],
		Size:         workloads.Tiny,
		Tier:         memsim.TierID(r.Intn(int(memsim.NumTiers))),
		Executors:    []int{0, 1, 2, 4}[r.Intn(4)],
		Parallelism:  []int{0, 16, 80}[r.Intn(3)],
		BandwidthCap: []float64{0, 1, 0.5}[r.Intn(3)],
		Seed:         int64(r.Intn(3)),
	}
	if s.Executors > 1 {
		s.CoresPerExecutor = 10
	}
	if r.Intn(2) == 0 {
		p := executor.StandardPlacements()[r.Intn(len(executor.StandardPlacements()))].P
		s.Tier, s.Placement = p.Heap, &p
	}
	if r.Intn(3) == 0 {
		scenarios := memsim.CapacityScenarios()
		specs, err := memsim.ScenarioSpecs(scenarios[r.Intn(len(scenarios))].Name)
		if err != nil {
			panic(err)
		}
		s.TierSpecs = &specs
	}
	return reflect.ValueOf(keyedSpec{s})
}

// Equal keys mean equal virtual results: a spec and its respelling share a
// key and, simulated separately, agree on everything a memo hit would
// hand over; and flipping any one keyed field of the spec changes the key.
func TestEqualKeysMeanEqualResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two tiny cells per sample")
	}
	typ := reflect.TypeOf(RunSpec{})
	property := func(ks keyedSpec, flip uint8) bool {
		a, b := ks.RunSpec, respell(ks.RunSpec)
		ka, _ := a.Key()
		kb, _ := b.Key()
		if ka != kb {
			t.Errorf("respelling moved the key:\n%s\n%s", ka, kb)
			return false
		}
		ra, rb := runValid(t, a), runValid(t, b)
		ra.Spec, rb.Spec = RunSpec{}, RunSpec{}
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s: equal keys, different results:\n%+v\n%+v", a, ra, rb)
			return false
		}
		i := int(flip) % typ.NumField()
		if name := typ.Field(i).Name; hostOnly[name] || unkeyable[name] {
			return true
		}
		flipped := a
		perturb(t, reflect.ValueOf(&flipped).Elem().Field(i))
		if kf, _ := flipped.Key(); kf == ka {
			t.Errorf("%s: flipping %s left the key unchanged", a, typ.Field(i).Name)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// fuzzedSpec builds a RunSpec from fuzzer-chosen scalars: place < 0 is the
// nil Placement, anything else picks the three category tiers from its
// base-4 digits (a non-zero spill is the heap fraction spilled onto Tier 2); specs picks
// nil, a copy of the Table I testbed, or a what-if scenario's machine.
func fuzzedSpec(workload string, size, tier, executors, cores, parallelism int, bwCap float64,
	seed int64, taskParallelism, place int, spill float64, specs uint8) RunSpec {
	s := RunSpec{
		Workload: workload, Size: workloads.Size(size), Tier: memsim.TierID(tier),
		Executors: executors, CoresPerExecutor: cores, Parallelism: parallelism,
		BandwidthCap: bwCap, Seed: seed, TaskParallelism: taskParallelism,
	}
	if place >= 0 {
		s.Placement = &executor.Placement{
			Heap: memsim.TierID(place % 4), Shuffle: memsim.TierID(place / 4 % 4), Cache: memsim.TierID(place / 16 % 4),
		}
		if spill != 0 {
			s.Placement.HeapSpill, s.Placement.HeapSpillFrac = memsim.Tier2, spill
		}
	}
	scenarios := memsim.CapacityScenarios()
	switch n := int(specs) % (2 + len(scenarios)); n {
	case 0:
	case 1:
		table := memsim.DefaultSpecs()
		s.TierSpecs = &table
	default:
		table := memsim.DefaultSpecs()
		table[memsim.Tier2] = scenarios[n-2].Spec
		s.TierSpecs = &table
	}
	return s
}

// sameCell reports whether a and b resolve to one cell: equal once every
// spelling Key folds is written out (respell) and the pointers are read
// through.
func sameCell(a, b RunSpec) bool {
	a, b = respell(a), respell(b)
	same := *a.Placement == *b.Placement && *a.TierSpecs == *b.TierSpecs
	a.Placement, a.TierSpecs, b.Placement, b.TierSpecs = nil, nil, nil, nil
	return same && a == b
}

// FuzzRunSpecKey is the memo's contract over arbitrary field values, valid
// or not: Key never panics; a spec carrying Faults, Tiering or Quota is
// never keyable; a spec and its respelling share a key; and two specs
// share a key only when they resolve to one cell (NaN fractions aside:
// they render alike and compare unequal).
func FuzzRunSpecKey(f *testing.F) {
	// a spelled with zeros, b with the defaults written out: one cell.
	f.Add("sort", 0, 2, 0, 0, 0, 0.0, int64(0), 0, -1, 0.0, uint8(0),
		"sort", 0, 2, 1, 40, 80, 1.0, int64(1), 8, 42, 0.0, uint8(1), uint8(0))
	// neighbours that differ in one keyed field each.
	f.Add("sort", 1, 2, 4, 10, 80, 0.4, int64(1), 0, -1, 0.0, uint8(0),
		"sort", 1, 3, 4, 10, 80, 0.4, int64(1), 0, -1, 0.0, uint8(0), uint8(0))
	f.Add("lda", 2, 0, 1, 40, 80, 0.0, int64(7), 0, 8, 0.5, uint8(2),
		"lda", 2, 0, 1, 40, 80, 0.0, int64(7), 0, 8, 0.25, uint8(3), uint8(0))
	// out-of-range everything, and the unkeyable attachments.
	f.Add("", -1, 9, -3, -1, -80, math.Inf(1), int64(-1), -2, 1<<40, -0.0, uint8(255),
		"\x00|", 99, -9, 1<<30, 0, 0, math.NaN(), int64(math.MinInt64), 0, -7, math.NaN(), uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T,
		w1 string, size1, tier1, ex1, cores1, par1 int, cap1 float64, seed1 int64, tp1, place1 int, spill1 float64, specs1 uint8,
		w2 string, size2, tier2, ex2, cores2, par2 int, cap2 float64, seed2 int64, tp2, place2 int, spill2 float64, specs2 uint8,
		attach uint8) {
		a := fuzzedSpec(w1, size1, tier1, ex1, cores1, par1, cap1, seed1, tp1, place1, spill1, specs1)
		b := fuzzedSpec(w2, size2, tier2, ex2, cores2, par2, cap2, seed2, tp2, place2, spill2, specs2)
		keyA, okA := a.Key()
		keyB, okB := b.Key()
		if !okA || !okB {
			t.Fatalf("a spec without Faults, Tiering or Quota reported unkeyable: %+v / %+v", a, b)
		}
		if again, _ := respell(a).Key(); again != keyA {
			t.Fatalf("respelling moved the key:\n%s\n%s", keyA, again)
		}
		nan := cap1 != cap1 || cap2 != cap2 || spill1 != spill1 || spill2 != spill2
		if keyA == keyB && !nan && !sameCell(a, b) {
			t.Fatalf("two cells share the key %s:\n%+v\n%+v", keyA, a, b)
		}
		if attach%8 != 0 {
			if attach&1 != 0 {
				a.Faults = &faults.Plan{}
			}
			if attach&2 != 0 {
				a.Tiering = &tiering.Config{}
			}
			if attach&4 != 0 {
				a.Quota = &blockmgr.TenantQuota{}
			}
			if key, ok := a.Key(); ok || key != "" {
				t.Fatalf("spec with attachments %03b is keyable: %q", attach%8, key)
			}
		}
	})
}
