package memsim

import "fmt"

// CapacityExceededError is the typed admission failure: a byte
// reservation did not fit the remaining DRAM budget. The multitenant
// admission controller consults the ledger before admitting a job; the
// error reaches a submitter only after its retry/queue budget is spent.
type CapacityExceededError struct {
	Requested int64
	Reserved  int64
	Budget    int64
}

// Error implements error.
func (e *CapacityExceededError) Error() string {
	return fmt.Sprintf("memsim: DRAM capacity exceeded: %d B requested, %d/%d B reserved",
		e.Requested, e.Reserved, e.Budget)
}

// CapacityLedger tracks cluster-level byte reservations against the DRAM
// budget — the charge-path bookkeeping behind admission control. It is a
// pure accounting structure: reservations are made by the multitenant
// admission controller when a job is admitted and released at its
// virtual completion time. Driver goroutine only.
type CapacityLedger struct {
	budget   int64
	reserved int64
}

// NewCapacityLedger builds a ledger with the given budget (<= 0 is
// rejected).
func NewCapacityLedger(budget int64) *CapacityLedger {
	if budget <= 0 {
		panic(fmt.Sprintf("memsim: capacity budget %d non-positive", budget))
	}
	return &CapacityLedger{budget: budget}
}

// Free returns the unreserved budget.
func (l *CapacityLedger) Free() int64 {
	if free := l.budget - l.reserved; free > 0 {
		return free
	}
	return 0
}

// Reserve charges a reservation against the budget, failing typed when it
// does not fit.
func (l *CapacityLedger) Reserve(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("memsim: Reserve(%d) negative", bytes)
	}
	if l.reserved+bytes > l.budget {
		return &CapacityExceededError{Requested: bytes, Reserved: l.reserved, Budget: l.budget}
	}
	l.reserved += bytes
	return nil
}

// Release returns a reservation to the budget. Releasing more than is
// reserved panics — the ledger leaked.
func (l *CapacityLedger) Release(bytes int64) {
	l.reserved -= bytes
	if l.reserved < 0 {
		panic(fmt.Sprintf("memsim: reservation underflow (%d B)", l.reserved))
	}
}
