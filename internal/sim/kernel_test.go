package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30, func(Time) { order = append(order, 3) })
	k.At(10, func(Time) { order = append(order, 1) })
	k.At(20, func(Time) { order = append(order, 2) })
	end := k.Run()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKernelSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func(Time) { order = append(order, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestKernelAfterIsRelative(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(100, func(now Time) {
		k.After(50, func(now2 Time) { at = now2 })
	})
	k.Run()
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

// fireFunc adapts a closure to Handler for tests of the typed path.
type fireFunc func(now Time)

func (f fireFunc) Fire(now Time, _ int32) { f(now) }

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(10, fireFunc(func(Time) { fired = true }), 0)
	if len(k.heap) != 1 {
		t.Fatal("event should be pending")
	}
	k.Cancel(e)
	if len(k.heap) != 0 {
		t.Fatal("event should not be pending after cancel")
	}
	k.Cancel(e) // double-cancel is a no-op
	k.Schedule(20, fireFunc(func(Time) {}), 0)
	k.Cancel(e) // a stale ticket does not cancel the slot's next event
	if len(k.heap) != 1 {
		t.Fatal("stale cancel removed another event")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelCancelFromAnotherEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	victim := k.Schedule(20, fireFunc(func(Time) { fired = true }), 0)
	k.At(10, func(Time) { k.Cancel(victim) })
	k.Run()
	if fired {
		t.Fatal("event fired despite cancellation at t=10")
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func(Time) {})
	})
	k.Run()
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.After(-1, func(Time) {})
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(10, func(now Time) { fired = append(fired, now) })
	k.At(20, func(now Time) { fired = append(fired, now) })
	k.At(30, func(now Time) { fired = append(fired, now) })
	k.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=20, want 2", len(fired))
	}
	if len(k.heap) != 1 {
		t.Fatalf("pending = %d, want 1", len(k.heap))
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d total, want 3", len(fired))
	}
}

// RunUntil moves the clock to the deadline even when a later event stays
// queued, and that event still fires at its own time.
func TestRunUntilAdvancesClockPastQueuedEvents(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(10, func(now Time) { fired = append(fired, now) })
	k.At(30, func(now Time) { fired = append(fired, now) })
	if got := k.RunUntil(20); got != 20 || k.Now() != 20 {
		t.Fatalf("RunUntil(20) = %v, Now() = %v; want 20", got, k.Now())
	}
	if k.Run() != 30 || len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Fatalf("fired at %v, want [10 30]", fired)
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	k := NewKernel()
	k.RunUntil(500)
	if k.Now() != 500 {
		t.Fatalf("clock = %d, want 500", k.Now())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.50us"},
		{2_500_000, "2.50ms"},
		{3_200_000_000, "3.200s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any set of non-negative delays, the kernel fires exactly
// len(delays) events and the final clock equals the maximum delay.
func TestKernelFiresAllEventsProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		k := NewKernel()
		var max Time
		count := 0
		for _, d := range raw {
			dt := Time(d)
			if dt > max {
				max = dt
			}
			k.At(dt, func(Time) { count++ })
		}
		end := k.Run()
		if count != len(raw) {
			return false
		}
		return len(raw) == 0 || end == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: events always observe a monotonically non-decreasing clock.
func TestKernelMonotonicClockProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		k := NewKernel()
		last := Time(-1)
		ok := true
		for _, d := range raw {
			k.At(Time(d), func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
