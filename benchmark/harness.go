package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"syscall"

	"repro/internal/telemetry"
)

// env is what every driver needs to know about the run.
type env struct {
	seed int64
	// tmp roots the scratch directories (inside the checkout when the
	// benchmark is started through run.sh).
	tmp string
	sz  sizing
}

// roundStats is the outcome of one fixed-work round of a workload.
type roundStats struct {
	wall float64 // host seconds, the whole round
	// opSeconds is the host time of the phases that produce ops; opLat
	// holds one latency (seconds) per op.
	opSeconds float64
	opLat     []float64
	// attempted and failed count every checked unit of the round: ops
	// and the output checks that are not ops (sweep cells, storms).
	attempted int
	failed    int
	// digest fingerprints the round's virtual ledger; equal seeds must
	// give equal digests in either mode.
	digest string
	// samples holds host-time samples per per-layer metric and counts
	// the exact (virtual-ledger) counts; both only in traced rounds.
	samples map[string][]float64
	counts  map[string]float64
}

func (st *roundStats) sample(name string, v float64) {
	if st.samples == nil {
		st.samples = map[string][]float64{}
	}
	st.samples[name] = append(st.samples[name], v)
}

func (st *roundStats) count(name string, v float64) {
	if st.counts == nil {
		st.counts = map[string]float64{}
	}
	st.counts[name] += v
}

func (st *roundStats) check(ok bool) {
	st.attempted++
	if !ok {
		st.failed++
	}
}

// driver is one workload. setup may be called repeatedly and leaves the
// driver ready for round; round r with a nil recorder is the timed path,
// with a recorder the traced one, and both must yield the same digest.
type driver interface {
	name() string
	// tailQ is the percentile op_tail_ms reports on this workload.
	tailQ() float64
	setup() (digest string, err error)
	round(r int, rec *recorder) (roundStats, error)
	// layer derives the workload's per-layer metrics from traced rounds.
	layer(rounds []roundStats) map[string]float64
	close() error
}

func newDriver(name string, e *env) (driver, error) {
	switch name {
	case "reproduce":
		return &reproduceDriver{e: e}, nil
	case "cells_large":
		return &cellsDriver{e: e}, nil
	case "tiering_sweep":
		return &tieringDriver{e: e}, nil
	case "advisor_service":
		return &advisorDriver{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// digester folds formatted virtual observables into one sha256.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) addf(format string, args ...any) {
	fmt.Fprintf(d.h, format, args...)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// rusage is the process's user+sys CPU time so far and its high-water
// resident set.
func rusage() (cpuSeconds, peakRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runSetup sets the driver up reps times, the kernel timed before each,
// and returns the median time as measured. Every repetition starts from
// nothing (fresh inputs, fresh scratch dirs, a fresh warm-up), and all of
// them must agree on the warm-up's virtual digest.
func runSetup(d driver, reps int, meter *speedometer) (seconds float64, deterministic bool, err error) {
	var times []float64
	first := ""
	deterministic = true
	for i := 0; i < reps; i++ {
		meter.read()
		sw := telemetry.StartStopwatch()
		digest, err := d.setup()
		if err != nil {
			return 0, false, fmt.Errorf("%s: set-up: %w", d.name(), err)
		}
		times = append(times, sw.Seconds())
		if i == 0 {
			first = digest
		} else if digest != first {
			deterministic = false
		}
	}
	return median(times), deterministic, nil
}

// outcome is one run's result in the shape the last stdout line carries.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	// digests holds each measured workload's virtual digest of round 0,
	// the round on the run's own seed.
	digests map[string]string
	// notes are printed above the metric table: sample counts and every
	// round's numbers as measured.
	notes []string
}

// runTimed measures the end-to-end metrics: whole rounds with no spans
// until the time box is used up, the speed kernel timed between them.
//
// The shared host disturbs a run in bursts that only ever slow a round
// (at GOMAXPROCS 1 a round of advisor_service takes 2.65-2.70 s when left
// alone and 3.2-4.5 s in a burst; a third of all rounds are hit, in some
// runs most), so a median over rounds still moves with the weather. Each
// timing is therefore the quiet quartile of the rounds' values (stats.go),
// brought to reference speed by the quiet quartile of the kernel's passes
// (calib.go), which removes the slow phases that outlast a run. The two
// together leave quartile spreads of 1-8 % between runs of one commit
// (sizing.go), where medians over rounds as measured left up to 11 %.
func runTimed(d driver, e *env, seconds float64) (out outcome, err error) {
	meter, err := newSpeedometer()
	if err != nil {
		return outcome{}, err
	}
	defer func() {
		if cerr := meter.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	setupS, deterministic, err := runSetup(d, e.sz.setupReps, meter)
	if err != nil {
		return outcome{}, err
	}
	out = outcome{correct: deterministic, metrics: map[string]float64{}, digests: map[string]string{}}
	out.notes = append(out.notes, fmt.Sprintf("as measured (op_tail_ms is p%g of a round's ops):", d.tailQ()*100),
		"round   wall_s    cpu_s    ops     ops/s   p50_ms  tail_ms")

	var wall, cpu, rate, p50, tail []float64
	mallocsBefore := mallocCount()
	clock := telemetry.StartStopwatch()
	rounds := 0
	for ; rounds == 0 || clock.Seconds() < seconds; rounds++ {
		meter.read()
		// Every round starts from a collected heap: its time does not
		// depend on the garbage the previous one left.
		runtime.GC()
		cpuBefore, _, err := rusage()
		if err != nil {
			return outcome{}, err
		}
		st, err := d.round(rounds, nil)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: round %d: %w", d.name(), rounds, err)
		}
		cpuAfter, _, err := rusage()
		if err != nil {
			return outcome{}, err
		}
		if len(st.opLat) == 0 {
			return outcome{}, fmt.Errorf("%s: round %d completed no op", d.name(), rounds)
		}
		if rounds == 0 {
			out.digests[d.name()] = st.digest
		}
		out.attempted += st.attempted
		out.failed += st.failed
		wall = append(wall, st.wall)
		cpu = append(cpu, cpuAfter-cpuBefore)
		rate = append(rate, float64(len(st.opLat))/st.opSeconds)
		p50 = append(p50, median(st.opLat)*1e3)
		tail = append(tail, quantile(st.opLat, d.tailQ())*1e3)
		out.notes = append(out.notes, fmt.Sprintf("%5d %8.3f %8.3f %6d %9.5g %8.4g %8.4g",
			rounds, wall[rounds], cpu[rounds], len(st.opLat), rate[rounds], p50[rounds], tail[rounds]))
	}
	meter.read()
	mallocs := mallocCount() - mallocsBefore
	_, rss, err := rusage()
	if err != nil {
		return outcome{}, err
	}
	if out.failed > 0 {
		out.correct = false
	}
	f := meter.factor()
	out.notes = append(out.notes, fmt.Sprintf(
		"set-up %.4g s as measured; peak RSS %.1f MB (a per-layer metric: process.peak_rss_mb)", setupS, rss),
		fmt.Sprintf("machine speed: quiet quartile of %d kernel passes %.4g ms against the reference %.4g ms; host times below are quiet quartiles x%.4f",
			len(meter.passes), quietQuartile(meter.passes, "lower")*1e3, calibReferenceSeconds*1e3, f))
	out.metrics["setup_s"] = setupS * f
	out.metrics["round_s"] = quietQuartile(wall, "lower") * f
	out.metrics["cpu_s_per_round"] = quietQuartile(cpu, "lower") * f
	out.metrics["ops_per_s"] = quietQuartile(rate, "higher") / f
	out.metrics["op_p50_ms"] = quietQuartile(p50, "lower") * f
	out.metrics["op_tail_ms"] = quietQuartile(tail, "lower") * f
	out.metrics["mallocs_k_per_round"] = float64(mallocs) / float64(rounds) / 1e3
	return out, nil
}

// runTraced measures the per-layer metrics. The selected workload runs
// pairs of rounds on one seed — first timed, then traced — for half the
// time box: the pair's digests must match (the traced path computes the
// same virtual ledger) and the ratio of the two kinds' quiet-quartile
// times is the tracing overhead. Every other workload then runs one traced round, and the
// probes run last, so each per-layer metric is measured in every traced
// run whichever workload was selected.
func runTraced(selected string, e *env, seconds float64, rec *recorder) (outcome, error) {
	out := outcome{correct: true, metrics: map[string]float64{}, digests: map[string]string{}}
	// The selected workload goes first, so that the process's peak RSS
	// after it is that workload's own.
	names := []string{selected}
	for _, name := range workloadNames() {
		if name != selected {
			names = append(names, name)
		}
	}
	for _, name := range names {
		d, err := newDriver(name, e)
		if err != nil {
			return outcome{}, err
		}
		traced, err := tracedRounds(d, name == selected, seconds/2, rec, &out)
		if err != nil {
			return outcome{}, err
		}
		out.digests[name] = traced[0].digest
		for k, v := range d.layer(traced) {
			out.metrics[k] = v
		}
		if name == selected {
			if _, out.metrics["process.peak_rss_mb"], err = rusage(); err != nil {
				return outcome{}, err
			}
		}
	}
	probed, err := runProbes(e, rec)
	if err != nil {
		return outcome{}, err
	}
	for k, v := range probed {
		out.metrics[k] = v
	}
	out.metrics["trace.spans"] = float64(len(rec.snapshot()))
	if out.failed > 0 {
		out.correct = false
	}
	return out, nil
}

// tracedRounds runs one driver's share of a traced run and returns its
// traced rounds.
func tracedRounds(d driver, selected bool, budget float64, rec *recorder, out *outcome) (traced []roundStats, err error) {
	if _, err := d.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", d.name(), err)
	}
	defer func() {
		if cerr := d.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: close: %w", d.name(), cerr)
		}
	}()
	var plainWall, tracedWall []float64
	clock := telemetry.StartStopwatch()
	for r := 0; r == 0 || (selected && clock.Seconds() < budget); r++ {
		var plain roundStats
		if selected {
			if plain, err = d.round(r, nil); err != nil {
				return nil, fmt.Errorf("%s: round %d: %w", d.name(), r, err)
			}
		}
		st, err := d.round(r, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: traced round %d: %w", d.name(), r, err)
		}
		out.attempted += st.attempted
		out.failed += st.failed
		if selected {
			out.attempted++
			if plain.digest != st.digest || plain.failed > 0 {
				out.failed++
			}
			plainWall = append(plainWall, plain.wall)
			tracedWall = append(tracedWall, st.wall)
		}
		traced = append(traced, st)
	}
	if selected {
		out.metrics["trace.overhead_frac"] = quietQuartile(tracedWall, "lower")/quietQuartile(plainWall, "lower") - 1
	}
	return traced, nil
}

// newEnv pins the process to procs Ps (sizing.go) and resolves the
// scratch root: BENCH_TMP when run.sh set it, the system temp dir
// otherwise.
func newEnv(seed int64, sz sizing) *env {
	tmp := os.Getenv("BENCH_TMP")
	if tmp == "" {
		tmp = os.TempDir()
	}
	runtime.GOMAXPROCS(procs)
	return &env{seed: seed, tmp: tmp, sz: sz}
}

// firstCounts returns the exact counts of the first traced round: the
// round on the run's own seed, so the value repeats bit-for-bit.
func firstCounts(rounds []roundStats, name string) float64 {
	return rounds[0].counts[name]
}

// allSamples gathers one metric's samples across rounds.
func allSamples(rounds []roundStats, name string) []float64 {
	var out []float64
	for _, st := range rounds {
		out = append(out, st.samples[name]...)
	}
	return out
}
