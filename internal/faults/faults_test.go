package faults

import (
	"math"
	"strings"
	"testing"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if err := p.Validate(4); err != nil {
		t.Fatalf("nil plan failed validation: %v", err)
	}
	if p.SlowFactor(0) != 1 {
		t.Fatalf("nil plan slow factor = %v, want 1", p.SlowFactor(0))
	}
	if p.TaskFailureCap() != DefaultMaxTaskFailures {
		t.Fatalf("nil plan task cap = %d", p.TaskFailureCap())
	}
	if p.StageAttemptCap() != DefaultMaxStageAttempts {
		t.Fatalf("nil plan stage cap = %d", p.StageAttemptCap())
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		frag string
	}{
		{"exec out of range", Plan{Crashes: []Crash{{Exec: 4}}}, "targets executor"},
		{"negative time", Plan{Crashes: []Crash{{Exec: 0, At: -1}}}, "negative time"},
		{"pool emptied", Plan{Crashes: []Crash{{Exec: 0}, {Exec: 1}, {Exec: 2}, {Exec: 3}}}, "no executor"},
		{"straggler out of range", Plan{Stragglers: []Straggler{{Exec: 9, Factor: 2}}}, "targets executor"},
		{"straggler below 1", Plan{Stragglers: []Straggler{{Exec: 0, Factor: 0.5}}}, "outside [1, 1e+06]"},
		{"straggler NaN", Plan{Stragglers: []Straggler{{Exec: 0, Factor: math.NaN()}}}, "outside"},
		{"straggler overflows the clock", Plan{Stragglers: []Straggler{{Exec: 0, Factor: math.Inf(1)}}}, "outside"},
		{"rate too high", Plan{TaskFailureRate: 1}, "out of [0,1)"},
		{"rate NaN", Plan{TaskFailureRate: math.NaN()}, "out of [0,1)"},
		{"negative task cap", Plan{MaxTaskFailures: -1}, "negative"},
		{"negative stage cap", Plan{MaxStageAttempts: -2}, "negative"},
	}
	for _, c := range cases {
		err := c.plan.Validate(4)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want fragment %q", c.name, err, c.frag)
		}
	}

	ok := Plan{
		Crashes:    []Crash{{Exec: 0, At: 5}, {Exec: 1, At: 9, Replace: true}},
		Stragglers: []Straggler{{Exec: 2, Factor: 3}},
	}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestHashMatchesHistoricalScheduler(t *testing.T) {
	// TaskHash/AttemptUniform replaced the scheduler's private
	// failureHash/failureUniform; the constants below were produced by
	// the original implementation and must never drift, or every seeded
	// run's failure schedule silently changes.
	h := TaskHash(11, 3, 5)
	if h != 0x69e0af2c3f5dd7e4 {
		t.Fatalf("TaskHash(11,3,5) = %#x", h)
	}
	u := AttemptUniform(h, 2)
	if u != 0.5097301531169209 {
		t.Fatalf("AttemptUniform = %v", u)
	}
}

func TestJobAbortedErrorFormats(t *testing.T) {
	err := &JobAbortedError{Job: 2, Reason: "task 5 failed 4 attempts", Attempts: 4}
	msg := err.Error()
	for _, frag := range []string{"job 2", "4 attempts", "task 5"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("error %q missing %q", msg, frag)
		}
	}
}
