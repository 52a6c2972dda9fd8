package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime/debug"
	"time"
)

// An untraced run sets up at least minSetups times and until setupBudget
// has been spent, at most maxSetups times; setup_s is the median, and the
// last deployment is the one measured. The cheap setups take tens of
// milliseconds, where one GC cycle or page-fault burst moves a single
// sample by a fifth, so they repeat more often.
const (
	minSetups   = 3
	maxSetups   = 20
	setupBudget = 2 * time.Second
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record (-out); its last stdout line is the
// four-key subset BENCHMARK.json consumers read.
type result struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Trace        bool                   `json:"trace"`
	OpsPerWorker int                    `json:"ops_per_worker"`
	ElapsedS     float64                `json:"elapsed_s"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FirstError   string                 `json:"first_error,omitempty"`
	Fingerprint  string                 `json:"fingerprint"`
	QueryOp      string                 `json:"query_op"`
	Samples      map[string]int         `json:"samples"`
	SetupRunsS   []float64              `json:"setup_runs_s,omitempty"`
	StageS       map[string]float64     `json:"stage_s"`
	Checks       []check                `json:"checks"`
	SetupProbeUs []float64              `json:"setup_probe_us"`
	PhaseProbeUs []float64              `json:"phase_probe_us"`
	Metrics      map[string]metricValue `json:"metrics"`
	RawMetrics   map[string]metricValue `json:"raw_metrics,omitempty"`
	Refused      []string               `json:"refused,omitempty"`
	spans        []span
}

// runWorkload runs one workload: setup, the measured phase with budget
// ops per worker, then the untimed correctness phase. An untraced run
// reports the end-to-end metrics; a traced run first measures the same
// ops untraced (for bench.trace_overhead and to prove the wrappers change
// nothing), then again through the layer probes, and reports the
// per-layer metrics. dir is scratch space, removed on return.
func runWorkload(w *workload, seed uint64, budget int, traced bool, dir string, log io.Writer) (*result, error) {
	ids := userIDs(w.users)
	res := &result{Workload: w.name, Seed: seed, Trace: traced, OpsPerWorker: budget, QueryOp: "ads", Metrics: map[string]metricValue{}}
	if w.cluster {
		res.QueryOp = "merge"
	}
	var (
		in         *instance
		err        error
		refPh      *phase // the traced run's untraced pass
		refFP      uint64
		setupTimes []float64
	)
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	runStart := time.Now()
	res.StageS = map[string]float64{}
	var host hostReadings
	host.take(probesPerPoint, &host.setup)
	if traced {
		ref, err := setup(w, seed, filepath.Join(dir, "untraced"), ids, nil, log)
		if err != nil {
			return nil, err
		}
		// Its pauses probe too, so both passes stop the same way; the
		// readings are dropped.
		refPh, err = measure(ref, seed, ids, budget, (&hostReadings{}).pause)
		if err == nil {
			refFP, err = servedFP(ref, ids)
		}
		ref.close()
		// Return a torn-down instance's memory to the OS, so the next
		// phase's heap and RSS peaks start from the same floor every run.
		debug.FreeOSMemory()
		if err != nil {
			return nil, err
		}
		if in, err = setup(w, seed, filepath.Join(dir, "traced"), ids, newProbes(), log); err != nil {
			return nil, err
		}
	} else {
		var spent time.Duration
		for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
			if in != nil {
				in.close()
				debug.FreeOSMemory()
			}
			start := time.Now()
			in, err = setup(w, seed, filepath.Join(dir, fmt.Sprint("setup", i)), ids, nil, log)
			if err != nil {
				return nil, err
			}
			d := time.Since(start)
			spent += d
			setupTimes = append(setupTimes, d.Seconds())
		}
		res.SetupRunsS = setupTimes
	}
	if err := in.recordSetupTables(ids); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	host.take(probesPerPoint, &host.setup, &host.phase)
	res.StageS["setup"] = time.Since(runStart).Seconds()

	before := readCounters(in)
	phaseStart := time.Now()
	ph, err := measure(in, seed, ids, budget, host.pause)
	if err != nil {
		return nil, err
	}
	res.StageS["phase"] = time.Since(phaseStart).Seconds()
	after := readCounters(in)
	host.take(probesPerPoint, &host.phase)
	if host.err != nil {
		return nil, host.err
	}
	res.SetupProbeUs, res.PhaseProbeUs = usList(host.setup), usList(host.phase)
	res.ElapsedS = ph.elapsed.Seconds()
	res.Attempted, res.Failed = ph.attempted, ph.failed
	if ph.firstErr != nil {
		res.FirstError = ph.firstErr.Error()
	}
	res.Samples = map[string]int{"report": len(ph.report), res.QueryOp: len(ph.query)}

	// Correctness phase, untimed: gates on the served deployment, then
	// the direct replay of the same op streams.
	checks := []check{
		gate("spans_closed", activeSpans(in)),
		gate("no_spill_errors", spillErrors(after)),
	}
	served, err := servedFP(in, ids)
	if err != nil {
		return nil, err
	}
	if in.cluster != nil {
		checks = append(checks, gate("replicas_converged", checkReplicas(in.cluster, ids)))
	}
	if traced {
		checks = append(checks, gate("probes_change_nothing", sameFP("untraced", refFP, "traced", served)))
	}
	setupTables := in.setupTables
	var cc codecCost
	if traced {
		res.spans = spansOf(in.probes)
		if cc, err = replayCodec(w.codec, ph.samples); err != nil {
			return nil, fmt.Errorf("replaying codec samples: %w", err)
		}
	}
	probed := in
	in.close()
	in = nil
	debug.FreeOSMemory()

	replayStart := time.Now()
	rep, err := replay(w, seed, ids, budget)
	if err != nil {
		return nil, err
	}
	res.StageS["replay"] = time.Since(replayStart).Seconds()
	res.Fingerprint = hex(rep.fp)
	checks = append(checks,
		gate("replay_fingerprint", sameFP("served", served, "replay", rep.fp)),
		gate("table_outputs_are_candidates", checkTableOutputs(rep.engines[0], ids, ph.tableOutputs)),
		gate("tables_never_redrawn", checkNeverRedrawn(rep.engines, ids, setupTables)),
	)
	res.StageS["probes"] = host.spent.Seconds()
	res.StageS["total"] = time.Since(runStart).Seconds()
	res.Checks = checks
	res.Correct = true
	for _, c := range checks {
		res.Correct = res.Correct && c.OK
	}

	_, setupProbeUs, _ := quartiles(res.SetupProbeUs)
	_, probeUs, _ := quartiles(res.PhaseProbeUs)
	if traced {
		m := layerMetrics(probed, ph, rep, before, after, cc, refPh)
		m["bench.host_probe_us"] = probeUs
		for name, v := range m {
			res.set(name, v)
		}
		return res, nil
	}
	_, setupMedian, _ := quartiles(setupTimes)
	raw := map[string]float64{
		"setup_s":        setupMedian,
		"checkins_per_s": checkinRate(ph),
		"peak_heap_mb":   mb(ph.peakHeap),
		"peak_rss_mb":    mb(ph.peakRSS),
	}
	for _, q := range []struct {
		name    string
		samples []time.Duration
		p       float64
	}{
		{"report_p50_ms", ph.report, 0.5},
		{"report_p95_ms", ph.report, 0.95},
		{"query_p50_ms", ph.query, 0.5},
		{"query_p95_ms", ph.query, 0.95},
	} {
		d, err := mustQuantile(q.samples, q.p, q.name)
		if err != nil {
			res.Refused = append(res.Refused, err.Error())
			continue
		}
		raw[q.name] = ms(d)
	}
	res.RawMetrics = map[string]metricValue{}
	for name, v := range raw {
		res.set(name, v)
		m := res.Metrics[name]
		res.RawMetrics[name] = m
		if name == "setup_s" {
			m.Value = atReferenceSpeed(m.Unit, v, setupProbeUs)
		} else {
			m.Value = atReferenceSpeed(m.Unit, v, probeUs)
		}
		res.Metrics[name] = m
	}
	return res, nil
}

// set records a metric with its declared unit.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("undeclared metric " + name)
}

// servedFP is the served deployment's population fingerprint; a cluster
// first runs its convergence pass.
func servedFP(in *instance, ids []string) (uint64, error) {
	if in.cluster != nil {
		if err := converge(in.cluster, in.det); err != nil {
			return 0, fmt.Errorf("converging cluster: %w", err)
		}
	}
	return populationFP(in.engines(), ids)
}

func sameFP(aName string, a uint64, bName string, b uint64) error {
	if a != b {
		return fmt.Errorf("%s fingerprint %s != %s fingerprint %s", aName, hex(a), bName, hex(b))
	}
	return nil
}

func activeSpans(in *instance) error {
	if n := in.tracer.ActiveSpans(); n != 0 {
		return fmt.Errorf("%d spans still active after the run", n)
	}
	return nil
}

func spillErrors(c counters) error {
	if c.tier.SpillErrors != 0 {
		return fmt.Errorf("%d spill errors", c.tier.SpillErrors)
	}
	return nil
}
