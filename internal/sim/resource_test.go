package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSingleFlowFullBandwidth(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 1e9) // 1 GB/s
	var done Time
	s.Submit(1e9, func(now Time) { done = now }) // 1 GB
	k.Run()
	want := Time(1e9) // 1 second in ns
	if diff := math.Abs(float64(done - want)); diff > 1000 {
		t.Fatalf("1GB at 1GB/s finished at %v, want ~1s", done)
	}
}

func TestTwoEqualFlowsShareCapacity(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 1e9)
	var d1, d2 Time
	s.Submit(5e8, func(now Time) { d1 = now })
	s.Submit(5e8, func(now Time) { d2 = now })
	k.Run()
	// Each gets 0.5 GB/s, so 0.5 GB takes 1 s for both.
	for i, d := range []Time{d1, d2} {
		if diff := math.Abs(float64(d) - 1e9); diff > 2000 {
			t.Fatalf("flow %d finished at %v, want ~1s", i, d)
		}
	}
}

func TestShortFlowFinishesFirstThenLongSpeedsUp(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 1e9)
	var dShort, dLong Time
	s.Submit(1e8, func(now Time) { dShort = now }) // 100 MB
	s.Submit(9e8, func(now Time) { dLong = now })  // 900 MB
	k.Run()
	// Shared until short drains: short needs 0.1GB at 0.5GB/s = 0.2s.
	// Long has served 0.1GB by then, 0.8GB left at full 1GB/s = +0.8s → 1.0s.
	if diff := math.Abs(float64(dShort) - 2e8); diff > 5000 {
		t.Fatalf("short flow finished at %v, want ~0.2s", dShort)
	}
	if diff := math.Abs(float64(dLong) - 1e9); diff > 5000 {
		t.Fatalf("long flow finished at %v, want ~1.0s", dLong)
	}
}

func TestCapFractionThrottles(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 1e9)
	s.SetCapFraction(0.5)
	var done Time
	s.Submit(5e8, func(now Time) { done = now })
	k.Run()
	if diff := math.Abs(float64(done) - 1e9); diff > 5000 {
		t.Fatalf("0.5GB at 0.5GB/s finished at %v, want ~1s", done)
	}
}

func TestCapFractionClamped(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 1e9)
	s.SetCapFraction(-3)
	if s.capFrac <= 0 {
		t.Fatalf("cap fraction %v not clamped above 0", s.capFrac)
	}
	s.SetCapFraction(7)
	if s.capFrac != 1 {
		t.Fatalf("cap fraction %v not clamped to 1", s.capFrac)
	}
}

func TestMidFlightThrottleChange(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 1e9)
	var done Time
	s.Submit(1e9, func(now Time) { done = now })
	// Halve the bandwidth at t=0.5s: 0.5GB served, the rest takes 1s more.
	k.At(Time(5e8), func(Time) { s.SetCapFraction(0.5) })
	k.Run()
	if diff := math.Abs(float64(done) - 1.5e9); diff > 5000 {
		t.Fatalf("finished at %v, want ~1.5s", done)
	}
}

func TestZeroWorkCompletesViaEvent(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 1e9)
	fired := false
	s.Submit(0, func(now Time) {
		fired = true
		if now != 0 {
			t.Errorf("zero-work flow completed at %v, want 0", now)
		}
	})
	if fired {
		t.Fatal("completion ran synchronously; must be deferred to the kernel")
	}
	k.Run()
	if !fired {
		t.Fatal("zero-work completion never fired")
	}
}

func TestCancelFlow(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 1e9)
	fired := false
	f := s.SubmitTo(1e9, fireFunc(func(Time) { fired = true }), 0)
	k.At(100, func(Time) { s.Withdraw(f) })
	k.Run()
	if fired {
		t.Fatal("cancelled flow completed")
	}
	if len(s.active) != 0 {
		t.Fatalf("%d active flows after cancel, want 0", len(s.active))
	}
}

func TestSameInstantCompletionsFireInSubmissionOrder(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 1e9)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Submit(1e6, func(Time) { order = append(order, i) })
	}
	k.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("completion order %v not submission order", order)
		}
	}
}

func TestNonPositiveCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewSharedServer(NewKernel(), "bad", 0)
}

// Regression: staggered submissions leave sub-nanosecond residues on
// in-flight flows; the server must still terminate (it once re-fired its
// completion event at the same instant forever).
func TestStaggeredResidueTerminates(t *testing.T) {
	k := NewKernel()
	s := NewSharedServer(k, "mem", 39.3e9)
	done := 0
	var submit func(i int)
	submit = func(i int) {
		if i >= 200 {
			return
		}
		s.Submit(float64(i%7)*333.7+1, func(Time) {
			done++
			submit(i + 1)
		})
		if i%3 == 0 {
			s.Submit(17.3, func(Time) { done++ })
		}
	}
	submit(0)
	k.Run()
	if k.fired > 100_000 {
		t.Fatalf("kernel fired %d events for ~270 flows: livelock", k.fired)
	}
	if done < 200 {
		t.Fatalf("only %d completions", done)
	}
}

// Property: for any batch of flows submitted at t=0 the makespan is
// (total work)/capacity: all flows are backlogged from the start, so no
// capacity is lost and no work is served twice.
func TestConservationOfWorkProperty(t *testing.T) {
	prop := func(sizes []uint32) bool {
		k := NewKernel()
		s := NewSharedServer(k, "mem", 1e9)
		total := 0.0
		n := 0
		for _, sz := range sizes {
			units := float64(sz%1_000_000) + 1
			total += units
			n++
			s.Submit(units, nil)
		}
		end := k.Run()
		if n == 0 {
			return true
		}
		wantEnd := total / 1e9 * 1e9 // seconds→ns with capacity 1e9/s
		return math.Abs(float64(end)-wantEnd) <= float64(n)*10+1000
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
