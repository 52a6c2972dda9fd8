package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// counters is the program's own instrumentation read at one instant, so
// the measured phase's share is after − before.
type counters struct {
	hits, nomadic, rebuilds uint64
	rebuildHist, applyHist  telemetry.HistogramSnapshot
	failovers               uint64
	tier                    core.TierStats
	repl                    edgecluster.ReplStats
}

func readCounters(in *instance) counters {
	reg := in.reg
	c := counters{
		hits:        reg.Counter("engine_table_hits_total", "").Value(),
		nomadic:     reg.Counter("engine_nomadic_total", "").Value(),
		rebuilds:    reg.Counter("engine_rebuilds_total", "").Value(),
		rebuildHist: reg.Histogram("engine_rebuild_seconds", "", nil).Snapshot(),
		applyHist:   stageHist(reg, tracing.StageApply).Snapshot(),
		failovers:   stageHist(reg, tracing.StageFailover).Count(),
	}
	for _, e := range in.engines() {
		ts := e.TierStats()
		c.tier.Resident += ts.Resident
		c.tier.Evictions += ts.Evictions
		c.tier.FaultIns += ts.FaultIns
		c.tier.SpillErrors += ts.SpillErrors
	}
	if in.cluster != nil {
		c.repl = in.cluster.ReplStats()
	}
	return c
}

func stageHist(reg *telemetry.Registry, st tracing.Stage) *telemetry.Histogram {
	return reg.Histogram("tracing_span_seconds", "", nil, telemetry.L("stage", st.String()))
}

// histQuantileUs is telemetry.Histogram.Quantile over the observations
// made between two snapshots, in microseconds (0 when there were none).
// These histograms have factor-4 buckets, so the value is a
// bucket-interpolated estimate; the benchmark's own timings are exact.
func histQuantileUs(before, after telemetry.HistogramSnapshot, q float64) float64 {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			if i >= len(after.Bounds) {
				break
			}
			lo := 0.0
			if i > 0 {
				lo = after.Bounds[i-1]
			}
			return (lo + (after.Bounds[i]-lo)*(target-cum)/float64(c)) * 1e6
		}
		cum = next
	}
	return after.Bounds[len(after.Bounds)-1] * 1e6
}

// codecCost replays captured request and response messages through the
// serving codec's own entry points (edge.ReadMessage, edge.WriteMessage)
// in the run's codec, timing decode and encode without the network.
type codecCost struct {
	decodeNs, encodeNs  float64
	reqBytes, respBytes float64
}

// codecReps repeats each sample so the per-call time is well above the
// clock's resolution.
const codecReps = 8

func replayCodec(codec edge.Codec, samples []wireSample) (codecCost, error) {
	var cc codecCost
	if len(samples) == 0 {
		return cc, nil
	}
	contentType := "application/json"
	if codec == edge.CodecBinary {
		contentType = wire.ContentType
	}
	var reqs []*http.Request
	var msgs []wire.Message
	var reqBytes int
	for _, s := range samples {
		body, err := encodeBody(codec, s.req)
		if err != nil {
			return cc, err
		}
		reqBytes += len(body)
		for r := 0; r < codecReps; r++ {
			req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			reqs = append(reqs, req)
			msgs = append(msgs, blank(s.req))
		}
	}
	rec := &discardWriter{h: http.Header{}}
	start := time.Now()
	for i, req := range reqs {
		if err := edge.ReadMessage(rec, req, codec, codec, msgs[i], edge.MaxBatchBody); err != nil {
			return cc, err
		}
	}
	cc.decodeNs = float64(time.Since(start)) / float64(len(reqs))
	cc.reqBytes = float64(reqBytes) / float64(len(samples))

	var resps []wire.Message
	for _, s := range samples {
		if s.resp != nil {
			resps = append(resps, s.resp)
		}
	}
	if len(resps) == 0 {
		return cc, nil
	}
	rec.n = 0
	start = time.Now()
	for r := 0; r < codecReps; r++ {
		for _, m := range resps {
			edge.WriteMessage(rec, codec, http.StatusOK, m)
		}
	}
	cc.encodeNs = float64(time.Since(start)) / float64(codecReps*len(resps))
	cc.respBytes = float64(rec.n) / float64(codecReps*len(resps))
	return cc, nil
}

// encodeBody encodes a request body exactly as internal/client does.
func encodeBody(codec edge.Codec, m wire.Message) ([]byte, error) {
	if codec == edge.CodecBinary {
		return wire.Encode(m), nil
	}
	return json.Marshal(m)
}

// blank returns a fresh message of m's type to decode into.
func blank(m wire.Message) wire.Message {
	switch m.(type) {
	case *edge.ReportRequest:
		return &edge.ReportRequest{}
	case *edge.ReportBatchRequest:
		return &edge.ReportBatchRequest{}
	default:
		return &edge.AdsRequest{}
	}
}

// discardWriter is an http.ResponseWriter that counts and drops the body.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// layerMetrics derives every per-layer metric of a traced run. kops
// normalises counts to one thousand client ops.
func layerMetrics(in *instance, ph *phase, rep *replayed, before, after counters, cc codecCost, untraced *phase) map[string]float64 {
	p := in.probes
	ops := float64(ph.attempted)
	kops := ops / 1000
	report, query := ph.report, ph.query
	// handler holds the front end's timings: the edge server's, or on a
	// cluster the gateway's. The unattributed share is measured against
	// whichever it is.
	handler := [2][]time.Duration{sortDurations(p.handler[opReport]), sortDurations(p.handler[opQuery])}
	edgeHandler, gateway := handler, []time.Duration(nil)
	if in.cluster != nil {
		edgeHandler, gateway = [2][]time.Duration{}, handler[opReport]
	}
	unattributed := func(client, server []time.Duration) float64 {
		if len(server) == 0 {
			return 0
		}
		return layerQuantileUs(client, 0.5) - layerQuantileUs(server, 0.5)
	}
	gc0, gc1 := ph.mem0, ph.mem1
	requests := float64((after.hits - before.hits) + (after.nomadic - before.nomadic))
	merges := float64(ph.merges)
	m := map[string]float64{
		"edge.report_handler_p50_us":      layerQuantileUs(edgeHandler[opReport], 0.5),
		"edge.report_handler_p99_us":      layerQuantileUs(edgeHandler[opReport], 0.99),
		"edge.ads_handler_p50_us":         layerQuantileUs(edgeHandler[opQuery], 0.5),
		"edge.ads_handler_p99_us":         layerQuantileUs(edgeHandler[opQuery], 0.99),
		"edge.unattributed_report_p50_us": unattributed(report, handler[opReport]),
		"edge.unattributed_ads_p50_us":    unattributed(query, handler[opQuery]),

		"wire.decode_ns_per_req":  cc.decodeNs,
		"wire.encode_ns_per_resp": cc.encodeNs,
		"wire.req_bytes":          cc.reqBytes,
		"wire.resp_bytes":         cc.respBytes,

		"core.report_ns_per_checkin": ratio(float64(rep.reportDur), float64(rep.checkins)),
		"core.request_ns_per_op":     ratio(float64(rep.reqDur), float64(rep.requests)),
		"core.apply_p50_us":          histQuantileUs(before.applyHist, after.applyHist, 0.5),
		"core.apply_p99_us":          histQuantileUs(before.applyHist, after.applyHist, 0.99),
		"core.table_hit_ratio":       ratio(float64(after.hits-before.hits), requests),
		"core.rebuilds_per_kcheckin": ratio(float64(after.rebuilds-before.rebuilds), float64(ph.checkins)/1000),
		"core.rebuild_p50_us":        histQuantileUs(before.rebuildHist, after.rebuildHist, 0.5),
		"core.faultin_ratio":         ratio(float64(after.tier.FaultIns-before.tier.FaultIns), ops),
		"core.evictions_per_kop":     ratio(float64(after.tier.Evictions-before.tier.Evictions), kops),
		"core.resident_users":        float64(after.tier.Resident),

		"geoind.nfold_calls_per_kop":   ratio(float64(p.nfold.calls.Load()), kops),
		"geoind.nfold_ns_per_call":     ratio(float64(p.nfold.ns.Load()), float64(p.nfold.calls.Load())),
		"geoind.laplace_calls_per_kop": ratio(float64(p.laplace.calls.Load()), kops),
		"geoind.laplace_ns_per_call":   ratio(float64(p.laplace.ns.Load()), float64(p.laplace.calls.Load())),

		"adnet.request_p50_us":  layerQuantileUs(sortDurations(p.provider), 0.5),
		"adnet.request_p99_us":  layerQuantileUs(p.provider, 0.99),
		"adnet.ads_per_request": ratio(float64(p.adsFetched.Load()), float64(len(p.provider))),
		"adnet.keep_ratio":      ratio(float64(ph.adsKept), float64(ph.adsFetched)),

		"wal.append_p50_us":   layerQuantileUs(sortDurations(p.walLat), 0.5),
		"wal.append_p99_us":   layerQuantileUs(p.walLat, 0.99),
		"wal.appends_per_kop": ratio(float64(len(p.walLat)), kops),
		"wal.bytes_per_op":    ratio(float64(p.walBytes.Load()), ops),
		"wal.checkpoint_s":    ph.ckpt.Seconds(),
		"wal.checkpoint_mb":   mb(uint64(ph.ckptBytes)),

		"edgecluster.gateway_handler_p50_us":     layerQuantileUs(gateway, 0.5),
		"edgecluster.failovers_per_kop":          ratio(float64(after.failovers-before.failovers), kops),
		"edgecluster.merge_degraded_ratio":       ratio(float64(ph.degraded), merges),
		"edgecluster.merge_dropped_per_merge":    ratio(float64(ph.dropped), merges),
		"edgecluster.repl_delta_bytes_per_merge": ratio(float64(after.repl.DeltaBytes-before.repl.DeltaBytes), merges),
		"edgecluster.repl_fallbacks":             float64(after.repl.Fallbacks - before.repl.Fallbacks),
		"edgecluster.detector_transitions":       float64(ph.transitions),
		"edgecluster.detector_downs":             float64(ph.downs),
		"edgecluster.detector_revives":           float64(ph.revives),

		"client.retries":             float64(ph.retries),
		"client.report_p99_us":       layerQuantileUs(untraced.report, 0.99),
		"client.query_p99_us":        layerQuantileUs(untraced.query, 0.99),
		"runtime.gc_cycles":          float64(gc1.NumGC - gc0.NumGC),
		"runtime.gc_pause_ms":        float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6,
		"runtime.alloc_bytes_per_op": ratio(float64(gc1.TotalAlloc-gc0.TotalAlloc), ops),

		"bench.trace_overhead": ratio(checkinRate(untraced), checkinRate(ph)),
		"bench.report_samples": float64(len(report)),
		"bench.query_samples":  float64(len(query)),
	}
	return m
}

// checkinRate is explicit check-ins acknowledged per second.
func checkinRate(ph *phase) float64 { return ratio(float64(ph.checkins), ph.elapsed.Seconds()) }

// spansOf returns the traced run's linked spans for writing out.
func spansOf(p *probes) []span {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]span(nil), p.spans...)
}
