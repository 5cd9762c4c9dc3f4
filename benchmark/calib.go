package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"syscall"

	"repro/internal/telemetry"
)

// The sandbox this benchmark runs in is a small VM on a shared host, and
// the host slows it in two ways. Short disturbances, seconds long, slow
// single rounds by 10-40 %; the harness deals with those by reporting the
// quiet quartile of a run's rounds (harness.go). Long ones, minutes long,
// slow everything: memory latency rises by up to 80 %, compute by up to
// 10 %, the simulator by up to 25 %, with no steal time in /proc/stat, so
// a whole run, and several runs in a row, sit in them. No statistic over
// a run's own rounds can see that. A run therefore times a fixed kernel
// that shares no code with the simulator between its rounds, and reports
// its host times at reference speed:
//
//	reported = measured x calibReferenceSeconds / quiet quartile of the kernel's passes
//
// A pass hashes calibBlocks MiB with sha256 and then makes calibSteps
// dependent loads through an 8 MiB table. On the quiet reference box the
// hashing takes four fifths of the pass and the loads one fifth, the mix
// at which the pass slows as the four workloads do: over 56 runs through
// quiet and slow phases, a pass of hashing alone left quartile spreads
// of up to 7 % between runs of one commit and a pass of loads alone 14 %,
// this mix 4 % (sizing.go), and any share of loads from a seventh to a
// quarter did as well. The factor is printed above every metric table.
const (
	calibBlocks = 24      // sha256 passes over a 1 MiB buffer
	calibWords  = 1 << 21 // the walk's table: 8 MiB of 32-bit slots
	calibSteps  = 1 << 16 // dependent loads
	calibPasses = 3       // passes per reading

	// calibReferenceSeconds is the quiet-quartile pass of the reference
	// box (2 vCPU, go1.24, GOMAXPROCS 1) in its quiet state; on that box,
	// undisturbed, reported and measured times coincide.
	calibReferenceSeconds = 0.0229
)

// speedometer times the kernel for one run. Its tables live outside the
// Go heap (anonymous mappings), so they add a constant ~9 MB to the peak
// RSS a timed run prints but do not move the collector's pacing of the
// workload.
type speedometer struct {
	buf    []byte // 1 MiB the compute half hashes
	chain  []byte // calibWords little-endian uint32 slots
	at     uint32 // where the walk stands
	passes []float64
}

func offHeap(bytes int) ([]byte, error) {
	mem, err := syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes for the speed readings: %w", bytes, err)
	}
	return mem, nil
}

func newSpeedometer() (*speedometer, error) {
	m := &speedometer{}
	var err error
	if m.chain, err = offHeap(4 * calibWords); err != nil {
		return nil, err
	}
	if m.buf, err = offHeap(1 << 20); err != nil {
		return nil, err
	}
	// Sattolo's algorithm on a fixed xorshift stream: a random single
	// cycle through every slot, so the walk defeats the prefetcher.
	slot := func(i int) []byte { return m.chain[4*i : 4*i+4] }
	for i := 0; i < calibWords; i++ {
		binary.LittleEndian.PutUint32(slot(i), uint32(i))
	}
	x := uint64(88172645463325252)
	for i := calibWords - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		vi, vj := binary.LittleEndian.Uint32(slot(i)), binary.LittleEndian.Uint32(slot(j))
		binary.LittleEndian.PutUint32(slot(i), vj)
		binary.LittleEndian.PutUint32(slot(j), vi)
	}
	return m, nil
}

// close unmaps the tables.
func (m *speedometer) close() error {
	err := syscall.Munmap(m.chain)
	if e := syscall.Munmap(m.buf); err == nil {
		err = e
	}
	return err
}

// read times calibPasses passes of the kernel (~0.07 s). Successive
// reads continue the walk where the last one stopped, so a run's passes
// cover the whole table, not its first steps again and again.
func (m *speedometer) read() {
	for p := 0; p < calibPasses; p++ {
		clock := telemetry.StartStopwatch()
		for i := 0; i < calibBlocks; i++ {
			sum := sha256.Sum256(m.buf)
			m.buf[i] = sum[0]
		}
		for i := 0; i < calibSteps; i++ {
			m.at = binary.LittleEndian.Uint32(m.chain[4*m.at:])
		}
		m.passes = append(m.passes, clock.Seconds())
	}
}

// factor is what a measured host time is multiplied by to report it at
// reference speed: below 1 when the machine, at its quietest while the
// run measured, ran slower than the reference.
func (m *speedometer) factor() float64 {
	return calibReferenceSeconds / quietQuartile(m.passes, "lower")
}
