// Package numa models the testbed's processor/memory topology and the
// numactl-style binding of executors to compute and memory tiers.
//
// The machine is a dual-socket 2x20-core Intel Xeon Gold 5218R (40
// hyperthreads per socket). The OS sees three asymmetric NUMA nodes:
// node 0 and node 1 hold the DRAM of sockets 0 and 1; node 2 holds the
// Optane DCPM capacity. A Binding pins a computing unit's CPUs to one
// socket (cpunodebind) and its allocations to one memory tier (membind).
package numa

import (
	"fmt"

	"repro/internal/memsim"
)

// SocketID identifies a physical processor socket.
type SocketID int

// The testbed has two sockets; every binding in the tree computes on the
// first (Table I's tiers are already local or remote relative to it).
const (
	Socket0    SocketID = 0
	NumSockets SocketID = 2
)

// String returns "socket0" or "socket1".
func (s SocketID) String() string { return fmt.Sprintf("socket%d", int(s)) }

// Topology describes the simulated machine.
type Topology struct {
	// CoresPerSocket is physical cores per socket (20 on the testbed).
	CoresPerSocket int
	// ThreadsPerCore is the SMT width (2 on the testbed).
	ThreadsPerCore int
}

// DefaultTopology returns the paper's 2x20-core, SMT-2 machine.
func DefaultTopology() Topology {
	return Topology{CoresPerSocket: 20, ThreadsPerCore: 2}
}

// HyperthreadsPerSocket is the number of schedulable CPUs per NUMA node;
// Spark's default single executor binds all 40 of them.
func (t Topology) HyperthreadsPerSocket() int {
	return t.CoresPerSocket * t.ThreadsPerCore
}

// TotalThreads is the machine-wide hyperthread count.
func (t Topology) TotalThreads() int {
	return t.HyperthreadsPerSocket() * int(NumSockets)
}

// Binding is a numactl-style placement: which socket the computing unit's
// threads run on, and which memory tier its allocations are served from.
type Binding struct {
	CPU SocketID
	Mem memsim.TierID
}

// String formats as "cpunodebind=0 membind=Tier 2".
func (b Binding) String() string {
	return fmt.Sprintf("cpunodebind=%d membind=%s", int(b.CPU), b.Mem)
}

// Validate rejects out-of-range sockets or tiers.
func (b Binding) Validate() error {
	if b.CPU < 0 || b.CPU >= NumSockets {
		return fmt.Errorf("numa: invalid socket %d", b.CPU)
	}
	if !b.Mem.Valid() {
		return fmt.Errorf("numa: invalid tier %d", b.Mem)
	}
	return nil
}

// BindingForTier returns the canonical binding used in the paper's tier
// sweeps: compute pinned on socket 0, memory pinned to the given tier.
// (Tier identity already encodes local/remote relative to the compute
// socket — Table I was measured exactly this way.)
func BindingForTier(tier memsim.TierID) Binding {
	return Binding{CPU: Socket0, Mem: tier}
}
