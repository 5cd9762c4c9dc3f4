package telemetry

import (
	"sort"
	"sync"
)

// Registry is a named-counter registry for engine-level observability:
// how many tasks were computed, how many stage attempts ran, how many
// recovery actions happened, and whatever future subsystems want to
// count. It is mutex-protected because phase-1 task
// workers update counters concurrently with the driver; a nil registry
// ignores all calls so call sites never need nil checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]int64)}
}

// Add increments a named counter by delta; no-op on a nil registry.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
	r.mu.Unlock()
}

// Set overwrites a named counter with an absolute value — the gauge
// flavour of Add, for observables that are re-sampled rather than
// accumulated (per-tier occupancy, watermark levels); no-op on a nil
// registry.
func (r *Registry) Set(name string, value int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] = value
	r.mu.Unlock()
}

// Get returns a counter's current value (0 if never written).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Snapshot returns a copy of all counters.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Names returns the registered counter names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
