// Command lbasim runs the full Edge-PrivLocAd pipeline end to end in one
// process: it synthesizes a user population, stands up an edge HTTP
// service backed by an ad network with radius-targeted campaigns, replays
// every user's trace through real HTTP clients, and finally mounts the
// longitudinal attack on the ad network's bid log — demonstrating that
// the observable stream does not reveal top locations.
//
// Usage:
//
//	lbasim -users 50 -campaigns 200
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/logx"
	"repro/internal/randx"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lbasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lbasim", flag.ContinueOnError)
	var (
		users      = fs.Int("users", 50, "users to simulate")
		maxCk      = fs.Int("max-checkins", 800, "max check-ins per user")
		campaigns  = fs.Int("campaigns", 200, "campaigns to register")
		seed       = fs.Uint64("seed", 1, "randomness seed")
		useRTB     = fs.Bool("rtb", false, "serve ads through second-price RTB auctions instead of direct matching")
		statsEvery = fs.Duration("stats-every", 5*time.Second, "interval between telemetry summaries during the replay (0 disables)")
		edges      = fs.Int("edges", 1, "edge devices; >1 replays through a fault-tolerant multi-edge cluster")
		chaos      = fs.Bool("chaos", false, "kill and revive edges mid-run (requires -edges > 1); health transitions are detector-driven")
		scenario   = fs.String("scenario", "", "replay a workload scenario through the multi-edge cluster: baseline | churn | gps-outage | traveler | collude")
		batch      = fs.Int("batch", 1, "check-ins per report call; >1 replays via POST /v1/report/batch (or batched cluster routing)")
		wireFlag   = fs.String("wire", "json", "serving-path codec for the replay clients: json | binary")
		logFormat  = fs.String("log-format", logx.FormatText, "structured log format: json | text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	codec, err := edge.ParseCodec(*wireFlag)
	if err != nil {
		return fmt.Errorf("-wire: %w", err)
	}
	logger, err := logx.New(*logFormat, os.Stderr)
	if err != nil {
		return err
	}
	if *chaos && *edges < 2 {
		return fmt.Errorf("-chaos requires -edges > 1 (nothing to fail over to)")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1")
	}
	if *scenario != "" {
		return runScenario(*scenario, *users, *maxCk, *edges, *seed)
	}

	// Workload.
	cfg := trace.DefaultConfig()
	cfg.NumUsers = *users
	cfg.MaxCheckIns = *maxCk
	cfg.Seed = *seed
	ds, err := trace.Generate(cfg)
	if err != nil {
		return fmt.Errorf("generating users: %w", err)
	}

	if *edges > 1 {
		return runCluster(cfg, ds, *edges, *chaos, *seed, *batch, codec, logger)
	}

	// Untrusted side: either a direct-matching ad network or an RTB
	// exchange with budgeted campaign bidders. attacker is the
	// provider-side bid log the longitudinal attack mines, so it keeps
	// every record.
	provider, attacker, exchange, err := deploy.NewProvider(*campaigns, *seed, *useRTB)
	if err != nil {
		return err
	}
	if *useRTB {
		fmt.Printf("serving ads via RTB second-price auctions (%d bidders, 100 ms deadline)\n", exchange.Bidders())
	}

	// Trusted side: edge engine + HTTP service.
	engineCfg, err := deploy.Engine(deploy.Params(), *seed)
	if err != nil {
		return err
	}
	engine, err := core.NewEngine(engineCfg)
	if err != nil {
		return fmt.Errorf("building engine: %w", err)
	}

	server, err := edge.NewServer(engine, provider, nil, logger)
	if err != nil {
		return fmt.Errorf("building server: %w", err)
	}
	exchange.Instrument(server.Registry())
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	cl, err := client.New(ts.URL, nil, client.WithCodec(codec))
	if err != nil {
		return fmt.Errorf("building client: %w", err)
	}
	fmt.Printf("serving-path wire codec: %s\n", codec)
	ctx := context.Background()

	// Periodic telemetry emission while the replay runs, so long
	// throughput runs show live progress.
	if *statsEvery > 0 {
		stopStats := startStatsEmitter(server, *useRTB, *statsEvery)
		defer stopStats()
	}

	// Replay: report every check-in, rebuild profiles, then issue one ad
	// request per check-in position.
	start := time.Now()
	var adsDelivered, adsFetched, requests int
	for _, u := range ds.Users {
		if err := replayReports(ctx, cl, u.ID, u.CheckIns, *batch); err != nil {
			return err
		}
		if err := cl.Rebuild(ctx, u.ID, cfg.End); err != nil {
			return fmt.Errorf("rebuilding %s: %w", u.ID, err)
		}
		for _, c := range u.CheckIns {
			resp, err := cl.RequestAds(ctx, u.ID, c.Pos, 10)
			if err != nil {
				return fmt.Errorf("requesting ads for %s: %w", u.ID, err)
			}
			adsDelivered += len(resp.Ads)
			adsFetched += resp.Fetched
			requests++
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("replayed %d users, %d ad requests in %s (%.0f req/s)\n",
		len(ds.Users), requests, elapsed.Round(time.Millisecond), float64(requests)/elapsed.Seconds())
	printTelemetrySummary(server, *useRTB)
	printStageBreakdown(server.Registry(), server.Tracer().ActiveSpans())
	fmt.Printf("ads fetched from provider: %d; delivered after AOI filtering: %d (%.1f%% bandwidth saved)\n",
		adsFetched, adsDelivered, 100*(1-float64(adsDelivered)/math.Max(1, float64(adsFetched))))

	// The attacker's view: mine the bid log.
	rAlpha, err := engineCfg.Mechanism.ConfidenceRadius(0.05)
	if err != nil {
		return fmt.Errorf("confidence radius: %w", err)
	}
	opts := attack.Options{Theta: 500, ClusterRadius: rAlpha}
	hits200, hits500 := 0, 0
	for _, u := range ds.Users {
		observed := attacker.ObservedLocations(u.ID)
		inferred, err := attack.TopN(observed, 1, opts)
		if err != nil {
			return fmt.Errorf("attacking %s: %w", u.ID, err)
		}
		truth := []geo.Point{u.TrueTops[0].Pos}
		if attack.Succeeds(inferred, truth, 1, 200) {
			hits200++
		}
		if attack.Succeeds(inferred, truth, 1, 500) {
			hits500++
		}
	}
	fmt.Printf("longitudinal attack on the bid log (%d records): top-1 recovered within 200 m for %d/%d users, within 500 m for %d/%d\n",
		attacker.LogSize(), hits200, len(ds.Users), hits500, len(ds.Users))
	fmt.Println("(with one-time geo-IND instead of Edge-PrivLocAd, the same attack recovers 75-93% of top-1 locations — see cmd/attack)")
	return nil
}

// replayReports delivers one user's check-ins to the edge: one
// /v1/report round trip each with batch == 1, or /v1/report/batch
// chunks of up to batch check-ins otherwise. Either path leaves the
// engine in byte-identical state; batching only cuts round trips.
func replayReports(ctx context.Context, cl *client.Client, userID string, checkIns []trace.CheckIn, batch int) error {
	if batch == 1 {
		for _, c := range checkIns {
			if err := cl.Report(ctx, userID, c.Pos, c.Time); err != nil {
				return fmt.Errorf("reporting for %s: %w", userID, err)
			}
		}
		return nil
	}
	for i := 0; i < len(checkIns); i += batch {
		end := min(i+batch, len(checkIns))
		reports := make([]edge.ReportRequest, 0, end-i)
		for _, c := range checkIns[i:end] {
			reports = append(reports, edge.ReportRequest{UserID: userID, Pos: c.Pos, Time: c.Time})
		}
		resp, err := cl.ReportBatch(ctx, reports)
		if err != nil {
			return fmt.Errorf("batch-reporting for %s: %w", userID, err)
		}
		if len(resp.Errors) > 0 {
			return fmt.Errorf("batch-reporting for %s: %d items rejected (first: index %d: %s)",
				userID, len(resp.Errors), resp.Errors[0].Index, resp.Errors[0].Error)
		}
	}
	return nil
}

// runCluster replays the workload through a fault-tolerant multi-edge
// deployment (paper Section V-B) using the cluster API directly: check-ins
// route to the nearest covering live edge, per-user profiles merge through
// secure aggregation, and the merged obfuscation table replicates to every
// edge through the versioned journal. With chaos enabled, a deterministic
// schedule kills one edge around each user's merge and revives it after
// the user's ad requests, exercising failover routing, degraded merges,
// and journal catch-up. The run ends with a convergence pass plus a
// byte-identity audit of every edge's table, and the longitudinal attack
// on the obfuscated request stream the ad providers would observe.
func runCluster(cfg trace.Config, ds *trace.Dataset, edges int, chaos bool, seed uint64, batch int, codec edge.Codec, logger *slog.Logger) error {
	engineCfg, err := deploy.Engine(deploy.Params(), seed)
	if err != nil {
		return err
	}
	cluster, err := deploy.NewCluster(engineCfg, cfg.Region.BBox, cfg.Region.BBox, edges, seed)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	cluster.Instrument(reg)
	// The cluster path has no HTTP middleware to open root spans, so the
	// replay loop acts as the caller: one root trace per cluster call, and
	// the engine/failover spans beneath it land in this registry's
	// tracing_span_seconds histograms.
	tracer := tracing.New(seed, tracing.WithSlowThreshold(250*time.Millisecond), tracing.WithLogger(logger))
	tracer.Instrument(reg)
	ctx := context.Background()

	// Check-ins replay through the cluster gateway over real HTTP in the
	// chosen wire codec; the gateway opens the root span per request, so
	// failover and engine spans land in the same registry as before.
	gw, err := edgecluster.NewGateway(cluster, nil, edgecluster.WithGatewayTracer(tracer))
	if err != nil {
		return fmt.Errorf("building gateway: %w", err)
	}
	gw.Instrument(reg)
	gts := httptest.NewServer(gw.Handler())
	defer gts.Close()
	gcl, err := client.New(gts.URL, nil, client.WithCodec(codec))
	if err != nil {
		return fmt.Errorf("building gateway client: %w", err)
	}

	fmt.Printf("cluster mode: %d edges, chaos=%v, wire=%s\n", edges, chaos, codec)

	// Replay. Chaos kills a deterministic victim edge (its endpoint stops
	// answering — SetReachable, the ground-truth seam) just before every
	// other user's merge. The failure DETECTOR, not the simulation,
	// drives the cluster's health state: seeded probe ticks confirm the
	// victim down mid-run and revive it (journal catch-up) once its
	// endpoint answers again. The simulation never calls MarkDown/MarkUp.
	det := cluster.NewDetector(edgecluster.DetectorConfig{
		Probes: edges, SuspectAfter: 2, ConfirmAfter: 1, Seed: seed,
	})
	tickUntil := func(cond func() bool) {
		for i := 0; i < 4*(det.Cfg().SuspectAfter+det.Cfg().ConfirmAfter) && !cond(); i++ {
			if trs, err := det.Tick(); err != nil {
				logger.Warn("chaos: detector tick", slog.Any("err", err))
			} else {
				for _, tr := range trs {
					logger.Info("chaos: detector transition",
						slog.String("node", tr.Node), slog.String("from", tr.From.String()), slog.String("to", tr.To.String()))
				}
			}
		}
	}
	chaosRnd := randx.New(seed, 0xC4A05)
	observed := make(map[string][]geo.Point, len(ds.Users))
	start := time.Now()
	var requests, kills int
	var degraded, dropped int
	for ui, u := range ds.Users {
		if err := replayReports(ctx, gcl, u.ID, u.CheckIns, batch); err != nil {
			return err
		}
		victim := -1
		if chaos && ui%2 == 1 {
			victim = chaosRnd.IntN(edges)
			if err := cluster.SetReachable(victim, false); err != nil {
				return err
			}
			logger.Info("chaos: edge endpoint killed", slog.Int("edge", victim), slog.String("user", u.ID))
			kills++
			// The merge below may run before OR after confirmation — both
			// paths must exclude the victim. Tick once so suspicion starts.
			if _, err := det.Tick(); err != nil {
				return fmt.Errorf("detector: %w", err)
			}
		}
		_, stats, err := cluster.MergeProfilesStats(u.ID, cfg.End)
		if err != nil {
			return fmt.Errorf("merging %s: %w", u.ID, err)
		}
		if stats.Degraded {
			degraded++
		}
		dropped += stats.Dropped
		if victim >= 0 {
			// Probes confirm the victim down while requests fail over
			// around it.
			tickUntil(func() bool { return cluster.Nodes()[victim].Down() })
			if !cluster.Nodes()[victim].Down() {
				return fmt.Errorf("chaos: detector never confirmed edge %d down", victim)
			}
		}
		for _, c := range u.CheckIns {
			tctx, root := tracer.StartTrace(ctx, "cluster.request")
			out, _, err := cluster.RequestCtx(tctx, u.ID, c.Pos)
			root.End()
			if err != nil {
				return fmt.Errorf("requesting for %s: %w", u.ID, err)
			}
			observed[u.ID] = append(observed[u.ID], out)
			requests++
		}
		if victim >= 0 {
			if err := cluster.SetReachable(victim, true); err != nil {
				return err
			}
			tickUntil(func() bool { return !cluster.Nodes()[victim].Down() })
			if cluster.Nodes()[victim].Down() {
				return fmt.Errorf("chaos: detector never revived edge %d", victim)
			}
			logger.Info("chaos: edge auto-revived", slog.Int("edge", victim), slog.String("user", u.ID))
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("replayed %d users, %d requests across %d edges in %s (%.0f req/s)\n",
		len(ds.Users), requests, edges, elapsed.Round(time.Millisecond), float64(requests)/elapsed.Seconds())

	// Convergence pass: restore every endpoint and let the detector
	// notice (still no manual MarkUp), drain the journal, merge the
	// check-ins still pending on edges that were down at their merge.
	for i := 0; i < edges; i++ {
		if err := cluster.SetReachable(i, true); err != nil {
			return fmt.Errorf("restoring edge %d endpoint: %w", i, err)
		}
	}
	tickUntil(func() bool {
		for _, n := range cluster.Nodes() {
			if n.Down() {
				return false
			}
		}
		return true
	})
	for i, n := range cluster.Nodes() {
		if n.Down() {
			return fmt.Errorf("chaos: edge %d still down after endpoints restored", i)
		}
	}
	if err := cluster.Reconcile(); err != nil {
		return fmt.Errorf("reconciling: %w", err)
	}
	final := cfg.End.Add(time.Hour)
	for _, u := range ds.Users {
		if _, err := cluster.MergeProfiles(u.ID, final); err != nil {
			return fmt.Errorf("final merge for %s: %w", u.ID, err)
		}
	}

	// Byte-identity audit: after catch-up, every edge must answer every
	// user from the SAME obfuscation table — independent per-edge tables
	// would void the (r, ε, δ, n) guarantee.
	nodes := cluster.Nodes()
	for _, u := range ds.Users {
		want, err := nodes[0].Engine.TableFingerprint(u.ID)
		if err != nil {
			return fmt.Errorf("fingerprinting %s: %w", u.ID, err)
		}
		for _, n := range nodes[1:] {
			got, err := n.Engine.TableFingerprint(u.ID)
			if err != nil {
				return fmt.Errorf("fingerprinting %s at %s: %w", u.ID, n.ID, err)
			}
			if got != want {
				return fmt.Errorf("replication diverged: %s table for %s is %x, %s has %x",
					n.ID, u.ID, got, nodes[0].ID, want)
			}
		}
	}
	fmt.Printf("replication audit: %d users byte-identical across all %d edges\n", len(ds.Users), edges)
	fmt.Printf("fault tolerance: kills=%d auto_downs=%d auto_revives=%d degraded_merges=%d failovers=%d journal_replays=%d replica_errors=%d merge_dropped=%d\n",
		kills,
		reg.Counter("cluster_auto_downs_total", "").Value(),
		reg.Counter("cluster_auto_revives_total", "").Value(),
		degraded,
		reg.Counter("cluster_failovers_total", "").Value(),
		reg.Counter("cluster_journal_replays_total", "").Value(),
		reg.Counter("cluster_replica_errors_total", "").Value(),
		dropped)

	// Delta replication accounting: the convergence invariant above held
	// while shipping only suffixes. Snapshot bytes are what whole-table
	// replication would have cost for the very same applies; deltas must
	// come in strictly under it once tables span multiple merge rounds.
	repl := cluster.ReplStats()
	ratio := 1.0
	if repl.SnapshotBytes > 0 {
		ratio = float64(repl.DeltaBytes) / float64(repl.SnapshotBytes)
	}
	fmt.Printf("replication: delta_bytes=%d snapshot_bytes=%d ratio=%.3f entries=%d fallbacks=%d\n",
		repl.DeltaBytes, repl.SnapshotBytes, ratio, repl.Entries, repl.Fallbacks)
	if repl.DeltaBytes == 0 || repl.DeltaBytes >= repl.SnapshotBytes {
		return fmt.Errorf("delta replication did not beat snapshots: delta=%d snapshot=%d", repl.DeltaBytes, repl.SnapshotBytes)
	}
	if chaos {
		if d, r := reg.Counter("cluster_auto_downs_total", "").Value(), reg.Counter("cluster_auto_revives_total", "").Value(); d == 0 || r == 0 {
			return fmt.Errorf("chaos ran without detector-driven transitions: auto_downs=%d auto_revives=%d", d, r)
		}
	}
	printStageBreakdown(reg, tracer.ActiveSpans())

	// The attacker's view: the obfuscated request stream is all any ad
	// provider behind these edges observes.
	rAlpha, err := engineCfg.Mechanism.ConfidenceRadius(0.05)
	if err != nil {
		return fmt.Errorf("confidence radius: %w", err)
	}
	opts := attack.Options{Theta: 500, ClusterRadius: rAlpha}
	hits200, hits500 := 0, 0
	for _, u := range ds.Users {
		inferred, err := attack.TopN(observed[u.ID], 1, opts)
		if err != nil {
			return fmt.Errorf("attacking %s: %w", u.ID, err)
		}
		truth := []geo.Point{u.TrueTops[0].Pos}
		if attack.Succeeds(inferred, truth, 1, 200) {
			hits200++
		}
		if attack.Succeeds(inferred, truth, 1, 500) {
			hits500++
		}
	}
	fmt.Printf("longitudinal attack on the cluster's request stream: top-1 recovered within 200 m for %d/%d users, within 500 m for %d/%d\n",
		hits200, len(ds.Users), hits500, len(ds.Users))
	return nil
}

// startStatsEmitter prints a telemetry summary every interval until the
// returned stop function is called.
func startStatsEmitter(server *edge.Server, useRTB bool, every time.Duration) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				printTelemetrySummary(server, useRTB)
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// printTelemetrySummary condenses the server's registry into one or two
// progress lines: engine throughput counters plus latency quantiles for
// the ad-serving path — the live analogue of the paper's Tables II/III.
func printTelemetrySummary(server *edge.Server, useRTB bool) {
	reg := server.Registry()
	adsLatency := reg.Histogram("edge_request_latency_seconds", "", nil, telemetry.L("route", "/v1/ads"))
	selection := reg.Histogram("engine_selection_seconds", "", nil)
	fmt.Printf("telemetry: reports=%d table_hits=%d nomadic=%d rebuilds=%d | /v1/ads p50=%s p95=%s | selection p50=%s p95=%s\n",
		reg.Counter("engine_reports_total", "").Value(),
		reg.Counter("engine_table_hits_total", "").Value(),
		reg.Counter("engine_nomadic_total", "").Value(),
		reg.Counter("engine_rebuilds_total", "").Value(),
		quantileString(adsLatency, 0.5), quantileString(adsLatency, 0.95),
		quantileString(selection, 0.5), quantileString(selection, 0.95))
	if useRTB {
		auctionLatency := reg.Histogram("rtb_auction_seconds", "", nil)
		fmt.Printf("telemetry: rtb auctions=%d no_fill=%d deadline_miss=%d | auction p50=%s p95=%s (100 ms deadline)\n",
			reg.Counter("rtb_auctions_total", "").Value(),
			reg.Counter("rtb_no_fill_total", "").Value(),
			reg.Counter("rtb_deadline_miss_total", "").Value(),
			quantileString(auctionLatency, 0.5), quantileString(auctionLatency, 0.95))
	}
}

// printStageBreakdown renders the per-stage span latency rows next to
// the aggregate quantiles, so a slow replay can be pinned to the engine
// apply, provider fetch, or failover stage; the active-span count is a
// leak check (anything above zero means a span was started and never
// ended).
func printStageBreakdown(reg *telemetry.Registry, activeSpans int64) {
	fmt.Printf("per-stage breakdown (span-sourced):\n")
	for _, st := range tracing.StageBreakdown(reg) {
		if st.Count == 0 {
			continue
		}
		fmt.Printf("  %-8s count=%-7d p50=%.3fms p95=%.3fms p99=%.3fms overflow=%d\n",
			st.Stage, st.Count, st.P50Ms, st.P95Ms, st.P99Ms, st.Overflow)
	}
	fmt.Printf("tracing: active_spans=%d\n", activeSpans)
}

// quantileString renders a latency histogram quantile as a duration, or
// n/a before the first (sampled) observation.
func quantileString(h *telemetry.Histogram, q float64) string {
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return "n/a"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}
