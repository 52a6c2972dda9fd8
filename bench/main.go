// Command bench is the repository's benchmark: one seeded serving
// benchmark of the edge, with four workloads that stress different
// layers, exact latency quantiles, per-layer attribution measured from
// outside the program, and correctness gates on every run.
//
// Usage (from this directory, or through run.sh from the repository root):
//
//	go run . -workload ads-table -seed 1 -seconds 10 -trace 0 [-out r.json]
//	go run . -compare <dirA> <dirB>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. A run whose outputs fail
// a correctness gate exits 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if probeChildMode() {
		os.Exit(runProbeChild(os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(names, " | "))
		seed    = fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 10, "target length of the measured phase; sizes the run's fixed op budget")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		out     = fs.String("out", "", "also write the full result JSON here (traced runs add <name>.spans.jsonl)")
		compare = fs.Bool("compare", false, "compare two directories of -out results: -compare <dirA> <dirB>")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	w := lookupWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "bench: unknown -workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	budget := max(1, int(math.Round(w.opsPerSec*float64(*seconds)/workers)))
	dir := filepath.Join(".bench_build", "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	res, err := runWorkload(w, *seed, budget, *trace == 1, dir, stderr)
	_ = os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	summarize(stderr, res)
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(res.Refused) > 0 {
		fmt.Fprintln(stderr, "bench: run too short for its percentiles:", strings.Join(res.Refused, "; "))
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeResult writes the full result, and a traced run's spans one per
// line next to it.
func writeResult(path string, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !res.Trace {
		return nil
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range res.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(strings.TrimSuffix(path, ".json")+".spans.jsonl", []byte(b.String()), 0o644)
}

// summarize prints a human-readable account of the run to stderr.
func summarize(wr io.Writer, res *result) {
	fmt.Fprintf(wr, "bench: %s seed=%d trace=%v ops/worker=%d elapsed=%.2fs attempted=%d failed=%d fingerprint=%s\n",
		res.Workload, res.Seed, res.Trace, res.OpsPerWorker, res.ElapsedS, res.Attempted, res.Failed, res.Fingerprint)
	fmt.Fprintf(wr, "  samples: report=%d %s=%d\n", res.Samples["report"], res.QueryOp, res.Samples[res.QueryOp])
	fmt.Fprintf(wr, "  wall: setup %.1fs (probes included), phase %.1fs (pauses included), replay %.1fs, probes %.1fs, total %.1fs\n",
		res.StageS["setup"], res.StageS["phase"], res.StageS["replay"], res.StageS["probes"], res.StageS["total"])
	if res.FirstError != "" {
		fmt.Fprintf(wr, "  first error: %s\n", res.FirstError)
	}
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(wr, "  check %-30s %s\n", c.Name, status)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(wr, "  %-42s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
