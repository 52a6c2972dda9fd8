package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runCompare implements -compare <dirA> <dirB>: for every workload and
// end-to-end metric it prints both sets' medians and quartiles, B's
// relative difference from A next to the metric's bound, and a verdict —
// agree, worse (B's median worse than A's by more than the bound), or
// unresolved (either set's quartile spread is wider than the bound, so
// the sets cannot tell a regression that size from noise). It then
// checks that every run of one (workload, seed) left the same
// fingerprint. It exits 1 on any "worse" or fingerprint mismatch.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: usage: -compare <dirA> <dirB>")
		return 2
	}
	sets := make([][]*result, 2)
	for i, dir := range args {
		rs, err := loadResults(dir)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		sets[i] = rs
	}
	bad := false
	for _, w := range workloads {
		a, b := untraced(sets[0], w.name), untraced(sets[1], w.name)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%s (A: %d runs, B: %d runs)\n", w.name, len(a), len(b))
		fmt.Fprintf(stdout, "  %-16s %28s %28s %8s %6s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "verdict")
		for _, m := range endToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "  %-16s missing in one set\n", m.Name)
				continue
			}
			verdict, diff, row := compareMetric(m, va, vb)
			bad = bad || verdict == "worse"
			fmt.Fprintf(stdout, "  %-16s %s %+7.1f%% %5.0f%%  %s\n", m.Name, row, 100*diff, 100*m.Bound, verdict)
		}
	}
	mismatch := fingerprintMismatches(append(sets[0], sets[1]...))
	if len(mismatch) == 0 {
		fmt.Fprintln(stdout, "fingerprints: identical for every (workload, seed) across both sets")
	}
	for _, m := range mismatch {
		fmt.Fprintln(stdout, "fingerprints differ:", m)
		bad = true
	}
	if bad {
		return 1
	}
	return 0
}

// compareMetric returns the verdict, B's signed relative difference from
// A (positive = higher) and the formatted median/quartile columns.
func compareMetric(m metricDef, va, vb []float64) (verdict string, diff float64, row string) {
	q1a, meda, q3a := quartiles(va)
	q1b, medb, q3b := quartiles(vb)
	diff = (medb - meda) / meda
	worse := diff
	if m.Better == "higher" {
		worse = -diff
	}
	spread := math.Max((q3a-q1a)/meda, (q3b-q1b)/medb)
	switch {
	case spread > m.Bound:
		verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
	case worse > m.Bound:
		verdict = "worse"
	default:
		verdict = "agree"
	}
	col := func(med, q1, q3 float64) string {
		return fmt.Sprintf("%10.4g [%7.4g, %7.4g]", med, q1, q3)
	}
	return verdict, diff, col(meda, q1a, q3a) + " " + col(medb, q1b, q3b)
}

// loadResults reads every -out result JSON in dir.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var rs []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("reading %s: %w", p, err)
		}
		if r.Workload == "" {
			continue // not a result file
		}
		rs = append(rs, &r)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return rs, nil
}

func untraced(rs []*result, workload string) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []*result, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		if mv, ok := r.Metrics[metric]; ok {
			v = append(v, mv.Value)
		}
	}
	return v
}

// fingerprintMismatches lists every (workload, seed) whose runs left
// more than one fingerprint.
func fingerprintMismatches(rs []*result) []string {
	seen := map[string]map[string]int{}
	for _, r := range rs {
		key := fmt.Sprintf("%s seed=%d ops/worker=%d", r.Workload, r.Seed, r.OpsPerWorker)
		if seen[key] == nil {
			seen[key] = map[string]int{}
		}
		seen[key][r.Fingerprint]++
	}
	var out []string
	for key, fps := range seen {
		if len(fps) > 1 {
			var parts []string
			for fp, n := range fps {
				parts = append(parts, fmt.Sprintf("%s×%d", fp, n))
			}
			sort.Strings(parts)
			out = append(out, key+": "+strings.Join(parts, " "))
		}
	}
	sort.Strings(out)
	return out
}
