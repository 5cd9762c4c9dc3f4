package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// suiteRecord is one run of a -suite file.
type suiteRecord struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    int               `json:"trace"`
	Digests  map[string]string `json:"digests"`
	Result   resultLine        `json:"result"`
}

// runSuite runs every workload runs times in each mode, each run a fresh
// child process of this binary so no run warms another, and appends one
// record per run to path.
func runSuite(path string, runs int, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for run := 0; run < runs; run++ {
		for _, w := range workloadNames() {
			for trace := 0; trace <= 1; trace++ {
				rec, err := runChild(self, w, seed, seconds, trace)
				if err == nil {
					err = enc.Encode(rec)
				}
				if err != nil {
					f.Close()
					return fmt.Errorf("suite run %d %s trace=%d: %w", run, w, trace, err)
				}
				fmt.Printf("suite: run %d %s trace=%d correct=%t\n", run, w, trace, rec.Result.Correct)
			}
		}
	}
	return f.Close()
}

// runChild runs one contract run and parses its output: the digest
// lines and the final result line.
func runChild(self, workload string, seed int64, seconds float64, trace int) (suiteRecord, error) {
	rec := suiteRecord{Workload: workload, Seed: seed, Trace: trace, Digests: map[string]string{}}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return rec, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	for _, line := range lines {
		if fields := strings.Fields(line); len(fields) == 3 && fields[0] == "virtual_digest" {
			rec.Digests[fields[1]] = fields[2]
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return rec, fmt.Errorf("decode result line: %w", err)
	}
	return rec, nil
}

func readSuite(path string) ([]suiteRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []suiteRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec suiteRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// verdict applies one end-to-end metric's bound to two sets of runs. It
// is "unresolved" when A's own quartile spread is wider than the bound
// (the runs cannot tell a change of that size from noise), "worse" when
// B's median is worse than A's by more than the bound, and "ok"
// otherwise.
func verdict(spec metricSpec, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma // > 0: B is larger
	if spec.better == "higher" {
		change = -change
	}
	switch {
	case quartileSpread(a) > spec.bound:
		return "unresolved", change
	case change > spec.bound:
		return "worse", change
	}
	return "ok", change
}

// runCompare prints one row per (workload, end-to-end metric), then the
// virtual-ledger row, and fails when any row is worse or the ledger
// moved.
func runCompare(w io.Writer, pathA, pathB string) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	values := func(recs []suiteRecord, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == workload && r.Trace == 0 {
				if m, ok := r.Result.Metrics[metric]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	bad := 0
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "A spread", "verdict")
	for _, workload := range workloadNames() {
		for _, spec := range endToEnd() {
			va, vb := values(a, workload, spec.name), values(b, workload, spec.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(spec, va, vb)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-16s %-20s %12.5g %12.5g %+7.1f%% %7.1f%%  %s\n", workload, spec.name,
				median(va), median(vb), change*100, quartileSpread(va)*100, v)
		}
	}
	moved := ledgerDiffs(append(a, b...))
	for _, m := range moved {
		fmt.Fprintf(w, "virtual ledger moved: %s\n", m)
	}
	if len(moved) == 0 {
		fmt.Fprintln(w, "virtual ledger: identical (every exact metric and digest, per seed)")
	}
	for _, recs := range [][]suiteRecord{a, b} {
		for _, r := range recs {
			if !r.Result.Correct || r.Result.Failed > 0 {
				fmt.Fprintf(w, "incorrect run: %s seed=%d trace=%d (%d of %d checks failed)\n",
					r.Workload, r.Seed, r.Trace, r.Result.Failed, r.Result.Attempted)
				bad++
			}
		}
	}
	if bad > 0 || len(moved) > 0 {
		return fmt.Errorf("%d row(s) worse or incorrect, %d ledger difference(s)", bad, len(moved))
	}
	return nil
}

// ledgerDiffs lists every exact metric and virtual digest that takes
// more than one value among the runs of one seed.
func ledgerDiffs(recs []suiteRecord) []string {
	exact := map[string]bool{}
	for _, spec := range perLayer() {
		if spec.exact {
			exact[spec.name] = true
		}
	}
	seen := map[string]map[string]bool{} // "seed/name" -> distinct values
	note := func(seed int64, name, value string) {
		key := fmt.Sprintf("seed %d %s", seed, name)
		if seen[key] == nil {
			seen[key] = map[string]bool{}
		}
		seen[key][value] = true
	}
	for _, r := range recs {
		for name, m := range r.Result.Metrics {
			if exact[name] {
				note(r.Seed, name, fmt.Sprint(m.Value))
			}
		}
		for name, digest := range r.Digests {
			note(r.Seed, "digest "+name, digest)
		}
	}
	var out []string
	for key, vals := range seen {
		if len(vals) > 1 {
			out = append(out, fmt.Sprintf("%s takes %d values", key, len(vals)))
		}
	}
	sort.Strings(out)
	return out
}
