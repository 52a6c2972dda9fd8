// Command loadgen is a closed-loop load generator for the edge serving
// path: a pool of workers drives a configurable mix of location reports
// (optionally batched through POST /v1/report/batch) and ad requests at
// an edge server — an in-process one by default, or any edged via
// -addr — and reports throughput plus p50/p95/p99 client-observed
// latency from internal/telemetry histograms.
//
// Closed loop means each worker waits for a response before issuing the
// next call, so measured latency includes queueing at the configured
// concurrency rather than at an unbounded open-loop arrival rate.
//
// Usage:
//
//	loadgen -users 256 -workers 8 -requests 20000 -mix 4:1 -batch 64
//	loadgen -wire binary                      # negotiate the binary wire codec
//	loadgen -scenario churn                   # replay a composed workload scenario
//	loadgen -addr http://127.0.0.1:8080       # drive an external edged
//
// For a WAL-backed or memory-tiered edge, start edged with -data-dir,
// -fsync or -max-resident and point -addr at it. The repository's
// serving benchmark lives in bench/ (see bench/README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adnet"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// streamWorkerBase is the stream selector base of the load workers'
// PRNG family. Worker streams are derived with the
// avalanche-then-increment idiom (randx.Mix64 over a GoldenGamma-spaced
// index): a plain additive selector like stream = w + base is linear, so
// the worker family can collide with any other additively chosen stream
// (the in-process edge's deploy.CampaignStream included) — and with PCG,
// low-entropy consecutive selectors pick correlated streams, skewing the
// generated load toward shared user/timing choices.
const streamWorkerBase = 0x10AD

// workerStream returns the PRNG stream selector for load worker w.
func workerStream(w int) uint64 {
	return randx.Mix64(streamWorkerBase + uint64(w)*randx.GoldenGamma)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// config is one load-generation run.
type config struct {
	Users     int
	Workers   int
	Requests  int
	Duration  time.Duration
	Mix       string
	Batch     int
	Campaigns int
	Seed      uint64
	Addr      string
	// Scenario replays a composed workload scenario (internal/workload
	// mode name) instead of the uniform synthetic load: workers drain the
	// scenario's event sequence through the same closed-loop HTTP path.
	Scenario string

	mixReports, mixAds int
	// codec is the serving-path codec the workers negotiate with the
	// edge: JSON or binary frames.
	codec edge.Codec
}

// result is the measured outcome of one run. Latency quantiles are
// linear interpolations inside telemetry histogram buckets (exponential
// bounds, factor 4), so treat them as bucket-resolution estimates.
type result struct {
	Name         string  `json:"name"`
	Batch        int     `json:"batch"`
	Wire         string  `json:"wire,omitempty"`
	CheckIns     int64   `json:"checkins"`
	AdRequests   int64   `json:"ad_requests"`
	HTTPOps      int64   `json:"http_ops"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	CheckInsPerS float64 `json:"checkins_per_sec"`
	AdsPerS      float64 `json:"ads_per_sec"`
	HTTPOpsPerS  float64 `json:"http_ops_per_sec"`
	ReportP50Ms  float64 `json:"report_p50_ms"`
	ReportP95Ms  float64 `json:"report_p95_ms"`
	ReportP99Ms  float64 `json:"report_p99_ms"`
	AdsP50Ms     float64 `json:"ads_p50_ms"`
	AdsP95Ms     float64 `json:"ads_p95_ms"`
	AdsP99Ms     float64 `json:"ads_p99_ms"`
	// Overflow counts observations past the top histogram bound; non-zero
	// means the quantiles above saturate at that bound and undersell the
	// real tail.
	ReportOverflow int64 `json:"report_overflow,omitempty"`
	AdsOverflow    int64 `json:"ads_overflow,omitempty"`
	BatchRejected  int64 `json:"batch_rejected,omitempty"`
	// Stages is the server-side per-stage span breakdown (in-process runs
	// only: external edges keep their spans in their own registry).
	Stages []tracing.StageStat `json:"stages,omitempty"`
	// ActiveSpans is the server tracer's span gauge after the run; any
	// value above zero is a span leak.
	ActiveSpans int64 `json:"active_spans"`
	// Scenario fields are present only for -scenario runs: the composed
	// workload's totals and how much of it the budget replayed.
	Scenario          string `json:"scenario,omitempty"`
	ScenarioEvents    int    `json:"scenario_events,omitempty"`
	ScenarioMutations int    `json:"scenario_mutations,omitempty"`
	ScenarioReplayed  int64  `json:"scenario_replayed,omitempty"`
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		users     = fs.Int("users", 256, "distinct users in the workload")
		workers   = fs.Int("workers", 8, "concurrent closed-loop workers")
		requests  = fs.Int("requests", 20_000, "total operations (each batched report counts its check-ins)")
		duration  = fs.Duration("duration", 0, "run for a fixed wall-clock time instead of a request budget")
		mix       = fs.String("mix", "4:1", "check-in to ad-request ratio, as R:A")
		batch     = fs.Int("batch", 1, "check-ins per report call; >1 uses POST /v1/report/batch")
		campaigns = fs.Int("campaigns", 100, "campaigns registered on the in-process ad network")
		seed      = fs.Uint64("seed", 1, "workload randomness seed")
		addr      = fs.String("addr", "", "target an external edge (e.g. http://127.0.0.1:8080) instead of an in-process server")
		jsonOut   = fs.Bool("json", false, "emit the result as JSON instead of a text summary")
		wireFlag  = fs.String("wire", "json", "serving-path codec: json | binary")
		scenario  = fs.String("scenario", "", "replay a composed workload scenario instead of uniform load: baseline | churn | gps-outage | traveler | collude")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := config{
		Users: *users, Workers: *workers, Requests: *requests, Duration: *duration,
		Mix: *mix, Batch: *batch, Campaigns: *campaigns,
		Seed: *seed, Addr: *addr, Scenario: *scenario,
	}
	if cfg.Scenario != "" {
		if _, err := workload.ParseMode(cfg.Scenario); err != nil {
			return fmt.Errorf("-scenario: %w", err)
		}
	}
	var err error
	cfg.mixReports, cfg.mixAds, err = parseMix(cfg.Mix)
	if err != nil {
		return err
	}
	if cfg.codec, err = edge.ParseCodec(*wireFlag); err != nil {
		return fmt.Errorf("-wire: %w", err)
	}
	if cfg.Users < 1 || cfg.Workers < 1 || cfg.Batch < 1 {
		return fmt.Errorf("users, workers, and batch must be >= 1")
	}
	if cfg.Requests < 1 && cfg.Duration <= 0 {
		return fmt.Errorf("need a positive -requests budget or a -duration")
	}

	name := fmt.Sprintf("batch=%d", cfg.Batch)
	if cfg.codec == edge.CodecBinary {
		name += "/wire=binary"
	}
	if cfg.Scenario != "" {
		name += "/scenario=" + cfg.Scenario
	}
	res, err := runOne(cfg, name)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(w, "loadgen: %s users=%d workers=%d mix=%s\n", res.Name, cfg.Users, cfg.Workers, cfg.Mix)
	if res.Scenario != "" {
		fmt.Fprintf(w, "scenario: mode=%s events=%d mutations=%d replayed=%d\n",
			res.Scenario, res.ScenarioEvents, res.ScenarioMutations, res.ScenarioReplayed)
	}
	fmt.Fprintf(w, "ingested %d check-ins + %d ad requests (%d HTTP ops) in %.2fs\n",
		res.CheckIns, res.AdRequests, res.HTTPOps, res.ElapsedSec)
	fmt.Fprintf(w, "throughput: %.0f checkins/s, %.0f ads/s, %.0f http_ops/s\n",
		res.CheckInsPerS, res.AdsPerS, res.HTTPOpsPerS)
	fmt.Fprintf(w, "report latency p50=%.3fms p95=%.3fms p99=%.3fms overflow=%d\n",
		res.ReportP50Ms, res.ReportP95Ms, res.ReportP99Ms, res.ReportOverflow)
	fmt.Fprintf(w, "ads    latency p50=%.3fms p95=%.3fms p99=%.3fms overflow=%d\n",
		res.AdsP50Ms, res.AdsP95Ms, res.AdsP99Ms, res.AdsOverflow)
	printStages(w, res)
	return nil
}

// printStages renders the server-side per-stage span breakdown next to
// the client-observed quantiles, so a p99 regression can be pinned to
// the handler, engine apply, WAL append, provider, or failover stage.
func printStages(w *os.File, res *result) {
	if len(res.Stages) == 0 {
		return
	}
	fmt.Fprintf(w, "per-stage breakdown (server-side spans):\n")
	for _, st := range res.Stages {
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s count=%-7d p50=%.3fms p95=%.3fms p99=%.3fms overflow=%d\n",
			st.Stage, st.Count, st.P50Ms, st.P95Ms, st.P99Ms, st.Overflow)
	}
	fmt.Fprintf(w, "tracing: active_spans=%d\n", res.ActiveSpans)
}

// parseMix parses "R:A" into the report and ads weights.
func parseMix(s string) (reports, ads int, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("mix %q must be R:A (e.g. 4:1)", s)
	}
	if _, err := fmt.Sscanf(parts[0], "%d", &reports); err != nil {
		return 0, 0, fmt.Errorf("mix %q: bad report weight", s)
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &ads); err != nil {
		return 0, 0, fmt.Errorf("mix %q: bad ads weight", s)
	}
	if reports < 0 || ads < 0 || reports+ads == 0 {
		return 0, 0, fmt.Errorf("mix %q: weights must be non-negative and not both zero", s)
	}
	return reports, ads, nil
}

// runOne executes one closed-loop run and returns its measurements.
func runOne(cfg config, name string) (*result, error) {
	baseURL := cfg.Addr
	var srv *edge.Server
	if baseURL == "" {
		ts, s, err := startEdge(cfg)
		if err != nil {
			return nil, err
		}
		defer ts.Close()
		baseURL, srv = ts.URL, s
	}

	reportHist, err := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	if err != nil {
		return nil, err
	}
	adsHist, err := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	if err != nil {
		return nil, err
	}

	// Budget accounting: report ops consume their batch size, ads ops
	// consume one, so -requests bounds total work independently of the
	// batch size (the batch=64 run ingests the same number of check-ins
	// as the batch=1 run, just in fewer HTTP round trips).
	var budget atomic.Int64
	budget.Store(int64(cfg.Requests))
	deadline := time.Time{}
	if cfg.Duration > 0 {
		budget.Store(math.MaxInt64)
		deadline = time.Now().Add(cfg.Duration)
	}

	var checkins, adsDone, httpOps, rejected atomic.Int64
	// userClock gives each user a monotonically advancing check-in time;
	// cross-worker interleavings may deliver them slightly out of order,
	// which the engine accepts (it never requires monotonic input).
	userClock := make([]atomic.Int64, cfg.Users)
	baseTime := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	region := trace.DefaultConfig().Region

	// Scenario mode: compose the workload up front and let the workers
	// drain its global event sequence through the same HTTP path, instead
	// of synthesizing uniform positions. The cursor hands each worker a
	// contiguous claim, so every event replays exactly once.
	var (
		scn       *workload.Workload
		scnEvents []workload.Event
		scnCursor atomic.Int64
	)
	if cfg.Scenario != "" {
		mode, err := workload.ParseMode(cfg.Scenario)
		if err != nil {
			return nil, err
		}
		tcfg := trace.DefaultConfig()
		tcfg.NumUsers = cfg.Users
		tcfg.MaxCheckIns = 400
		tcfg.Seed = cfg.Seed
		scn, err = workload.Build(workload.Synthetic{Config: tcfg}, workload.Config{
			Mode: mode, Seed: cfg.Seed, Parallelism: cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("composing scenario: %w", err)
		}
		scnEvents = scn.Flatten()
		if srv != nil {
			scn.Instrument(srv.Registry())
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Workers)
	ctx := context.Background()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.New(baseURL, nil, client.WithCodec(cfg.codec))
			if err != nil {
				errCh <- err
				return
			}
			rnd := randx.New(cfg.Seed, workerStream(w))
			reports := make([]edge.ReportRequest, 0, cfg.Batch)
			for {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				isReport := cfg.mixAds == 0 ||
					(cfg.mixReports > 0 && rnd.IntN(cfg.mixReports+cfg.mixAds) < cfg.mixReports)
				cost := int64(1)
				if isReport {
					cost = int64(cfg.Batch)
				}
				if budget.Add(-cost) < 0 {
					return
				}
				var user string
				var pos geo.Point
				var claimed []workload.Event
				if scn != nil {
					// Claim the next cost events from the scenario sequence;
					// the run ends when the composed workload is drained.
					lo := scnCursor.Add(cost) - cost
					if lo >= int64(len(scnEvents)) {
						return
					}
					hi := min(lo+cost, int64(len(scnEvents)))
					claimed = scnEvents[lo:hi]
					user, pos = claimed[0].AdID, claimed[0].Pos
				} else {
					uid := rnd.IntN(cfg.Users)
					user = fmt.Sprintf("u%05d", uid)
					pos = geo.Point{
						X: region.MinX + rnd.Float64()*region.Width(),
						Y: region.MinY + rnd.Float64()*region.Height(),
					}
					if isReport {
						reports = reports[:0]
						for i := 0; i < cfg.Batch; i++ {
							seq := userClock[uid].Add(1)
							reports = append(reports, edge.ReportRequest{
								UserID: user,
								Pos:    pos.Add(rnd.GaussianPolar(50)),
								Time:   baseTime.Add(time.Duration(seq) * time.Minute),
							})
						}
					}
				}
				if scn != nil && isReport {
					reports = reports[:0]
					for _, e := range claimed {
						reports = append(reports, edge.ReportRequest{UserID: e.AdID, Pos: e.Pos, Time: e.Time})
					}
					cost = int64(len(reports))
				}
				if isReport {
					start := time.Now()
					if cfg.Batch == 1 {
						err = cl.Report(ctx, reports[0].UserID, reports[0].Pos, reports[0].Time)
					} else {
						var resp edge.ReportBatchResponse
						resp, err = cl.ReportBatch(ctx, reports)
						rejected.Add(int64(len(resp.Errors)))
					}
					if err != nil {
						errCh <- err
						return
					}
					reportHist.ObserveDuration(time.Since(start))
					checkins.Add(cost)
				} else {
					start := time.Now()
					if _, err := cl.RequestAds(ctx, user, pos, 10); err != nil {
						errCh <- err
						return
					}
					adsHist.ObserveDuration(time.Since(start))
					adsDone.Add(1)
				}
				httpOps.Add(1)
			}
		}(w)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	res := &result{
		Name:           name,
		Batch:          cfg.Batch,
		Wire:           cfg.codec.String(),
		CheckIns:       checkins.Load(),
		AdRequests:     adsDone.Load(),
		HTTPOps:        httpOps.Load(),
		ElapsedSec:     elapsed.Seconds(),
		CheckInsPerS:   float64(checkins.Load()) / elapsed.Seconds(),
		AdsPerS:        float64(adsDone.Load()) / elapsed.Seconds(),
		HTTPOpsPerS:    float64(httpOps.Load()) / elapsed.Seconds(),
		ReportP50Ms:    quantileMs(reportHist, 0.50),
		ReportP95Ms:    quantileMs(reportHist, 0.95),
		ReportP99Ms:    quantileMs(reportHist, 0.99),
		AdsP50Ms:       quantileMs(adsHist, 0.50),
		AdsP95Ms:       quantileMs(adsHist, 0.95),
		AdsP99Ms:       quantileMs(adsHist, 0.99),
		ReportOverflow: int64(reportHist.Overflow()),
		AdsOverflow:    int64(adsHist.Overflow()),
		BatchRejected:  rejected.Load(),
	}
	if scn != nil {
		res.Scenario = string(scn.Mode)
		res.ScenarioEvents = scn.Stats.Events
		res.ScenarioMutations = scn.Stats.Mutations
		res.ScenarioReplayed = min(scnCursor.Load(), int64(len(scnEvents)))
	}
	if srv != nil {
		res.Stages = tracing.StageBreakdown(srv.Registry())
		res.ActiveSpans = srv.Tracer().ActiveSpans()
		if res.ActiveSpans != 0 {
			return res, fmt.Errorf("span leak: %d spans still active after the run", res.ActiveSpans)
		}
	}
	return res, nil
}

// quantileMs renders a latency histogram quantile in milliseconds (0
// before the first observation).
func quantileMs(h *telemetry.Histogram, q float64) float64 {
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return 0
	}
	return v * 1000
}

// startEdge stands up the in-process edge: edged's default deployment
// (mechanisms, engine with the default shard count, and campaign layout)
// with a bounded bid log (loadgen runs are exactly the sustained load
// the ring cap exists for), behind the HTTP server. The engine holds no
// files, so closing the returned test server releases everything.
func startEdge(cfg config) (*httptest.Server, *edge.Server, error) {
	engineCfg, err := deploy.Engine(deploy.Params(), cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	engine, err := core.NewEngine(engineCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("building engine: %w", err)
	}
	provider, _, _, err := deploy.NewProvider(cfg.Campaigns, cfg.Seed, false, adnet.WithBidLogCap(1<<16))
	if err != nil {
		return nil, nil, err
	}
	server, err := edge.NewServer(engine, provider, nil, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("building server: %w", err)
	}
	return httptest.NewServer(server.Handler()), server, nil
}
