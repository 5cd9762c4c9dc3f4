package memsim

import (
	"errors"
	"testing"
)

// TestCapacityLedger exercises reserve/release against the default
// budgets and the typed exhaustion error.
func TestCapacityLedger(t *testing.T) {
	l := NewCapacityLedger(1000)
	if err := l.Reserve(600); err != nil {
		t.Fatalf("reserve 600/1000: %v", err)
	}
	if free := l.Free(); free != 400 {
		t.Fatalf("free %d, want 400", free)
	}
	err := l.Reserve(500)
	if err == nil {
		t.Fatal("over-reserve admitted")
	}
	var typed *CapacityExceededError
	if !errors.As(err, &typed) {
		t.Fatalf("error %v (%T), want *CapacityExceededError", err, err)
	}
	if typed.Requested != 500 || typed.Reserved != 600 || typed.Budget != 1000 {
		t.Fatalf("error fields %+v", typed)
	}
	l.Release(600)
	if l.reserved != 0 {
		t.Fatalf("reserved %d after release, want 0", l.reserved)
	}
	if err := l.Reserve(1000); err != nil {
		t.Fatalf("full-budget reserve: %v", err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("reservation underflow did not panic")
		}
	}()
	l.Release(2000)
}
