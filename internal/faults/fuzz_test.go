package faults_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/hibench"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// FuzzFaultsPlan holds Plan.Validate to its word for two executors: a plan
// it accepts — up to four crashes in the first 50 ms, with or without a
// replacement, a straggler, a task failure rate, attempt caps and
// speculation — runs tiny sort at 2x2 to either a result or a typed
// *faults.JobAbortedError, never a panic, and a run that recovers computes
// exactly the fault-free summary.
func FuzzFaultsPlan(f *testing.F) {
	spec := hibench.RunSpec{Workload: "sort", Size: workloads.Tiny, Executors: 2, CoresPerExecutor: 2, TaskParallelism: 1}
	clean, err := hibench.Run(spec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, int8(-1), 1.0, 0.0, int8(0), int8(0), false)
	f.Add([]byte{1, 0x00, 0x10, 1}, int8(-1), 1.0, 0.0, int8(0), int8(0), false)
	f.Add([]byte{0, 0xff, 0x7f, 0, 1, 0x00, 0x01, 1}, int8(1), 3.0, 0.1, int8(4), int8(4), true)
	f.Add([]byte{}, int8(0), 8.0, 0.0, int8(0), int8(0), true)
	f.Add([]byte{}, int8(-1), 1.0, 0.9, int8(2), int8(1), false)
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, int8(2), 0.5, 1.0, int8(-1), int8(-1), false)
	f.Fuzz(func(t *testing.T, crashes []byte, stragglerExec int8, stragglerFactor, rate float64,
		taskCap, stageCap int8, speculate bool) {
		plan := &faults.Plan{
			TaskFailureRate: rate, MaxTaskFailures: int(taskCap), MaxStageAttempts: int(stageCap),
			Speculation: speculate,
		}
		// Each four bytes are one crash: an executor slot in [-1, 2] (two
		// executors, so both ends are out of range), a time in [0, 50 ms]
		// and whether a replacement comes up.
		for i := 0; i+4 <= len(crashes) && i < 16; i += 4 {
			at := int64(binary.LittleEndian.Uint16(crashes[i+1:])) * int64(50*sim.Millisecond) / 0xffff
			plan.Crashes = append(plan.Crashes, faults.Crash{
				Exec: int(crashes[i]%4) - 1, At: sim.Time(at), Replace: crashes[i+3]&1 == 1,
			})
		}
		if stragglerExec >= 0 {
			plan.Stragglers = []faults.Straggler{{Exec: int(stragglerExec % 3), Factor: stragglerFactor}}
		}
		if plan.Validate(2) != nil {
			return
		}
		s := spec
		s.Faults = plan
		res, err := hibench.Run(s)
		if err != nil {
			var aborted *faults.JobAbortedError
			if !errors.As(err, &aborted) {
				t.Fatalf("plan %+v: %v, want a result or *faults.JobAbortedError", plan, err)
			}
			return
		}
		if res.Summary != clean.Summary {
			t.Fatalf("plan %+v recovered to %v, fault-free run computed %v", plan, res.Summary, clean.Summary)
		}
	})
}
