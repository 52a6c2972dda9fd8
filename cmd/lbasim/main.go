// Command lbasim runs the Edge-PrivLocAd pipeline end to end: it
// composes a workload scenario over a synthetic user population,
// replays every stream through a real HTTP client to one edge.Server —
// over a single edge engine, over a fault-tolerant multi-edge cluster,
// or at a running edged — and mounts the longitudinal attack on the
// obfuscated locations the ad networks received, demonstrating that the
// observable stream does not reveal top locations.
//
// Usage:
//
//	lbasim -users 50 -campaigns 200
//	lbasim -edges 3 -chaos -scenario traveler       # a cluster losing edges mid-run
//	lbasim -addr http://127.0.0.1:8080 -wire binary # drive a running edged
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/logx"
	"repro/internal/randx"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbasim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lbasim", flag.ContinueOnError)
	var (
		users      = fs.Int("users", 50, "users to simulate")
		maxCk      = fs.Int("max-checkins", 800, "max check-ins per user")
		campaigns  = fs.Int("campaigns", 200, "campaigns to register on the in-process ad network")
		seed       = fs.Uint64("seed", 1, "randomness seed")
		useRTB     = fs.Bool("rtb", false, "serve ads through second-price RTB auctions instead of direct matching")
		statsEvery = fs.Duration("stats-every", 5*time.Second, "interval between a single in-process edge's telemetry summaries during the replay (0 disables)")
		edges      = fs.Int("edges", 1, "edge devices; >1 replays through a fault-tolerant multi-edge cluster")
		chaosFlag  = fs.Bool("chaos", false, "kill and revive edges mid-run (requires -edges > 1); health transitions are detector-driven")
		scenario   = fs.String("scenario", string(workload.ModeBaseline), "workload scenario: baseline | churn | gps-outage | traveler | collude")
		batch      = fs.Int("batch", 1, "check-ins per report call; >1 replays via POST /v1/report/batch")
		wireFlag   = fs.String("wire", "json", "serving-path codec of the replay client: json | binary")
		addr       = fs.String("addr", "", "replay against a running edged (e.g. http://127.0.0.1:8080) instead of an in-process edge")
		logFormat  = fs.String("log-format", logx.FormatText, "structured log format: json | text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	codec, err := edge.ParseCodec(*wireFlag)
	if err != nil {
		return fmt.Errorf("-wire: %w", err)
	}
	mode, err := workload.ParseMode(*scenario)
	if err != nil {
		return fmt.Errorf("-scenario: %w", err)
	}
	logger, err := logx.New(*logFormat, os.Stderr)
	if err != nil {
		return err
	}
	switch {
	case *chaosFlag && *edges < 2:
		return fmt.Errorf("-chaos requires -edges > 1 (nothing to fail over to)")
	case *batch < 1:
		return fmt.Errorf("-batch must be >= 1")
	case *addr != "" && (*edges > 1 || *useRTB):
		return fmt.Errorf("-addr drives the edged it names: its edges and ad provider are edged's, not -edges or -rtb")
	}

	tcfg := trace.DefaultConfig()
	tcfg.NumUsers = *users
	tcfg.MaxCheckIns = *maxCk
	tcfg.Seed = *seed
	wl, err := workload.Build(workload.Synthetic{Config: tcfg}, workload.Config{Mode: mode, Seed: *seed})
	if err != nil {
		return fmt.Errorf("composing workload: %w", err)
	}
	engineCfg, err := deploy.Engine(deploy.Params(), *seed)
	if err != nil {
		return err
	}

	// The edge: a running edged, or one built here — a single engine or a
	// cluster of them behind the same HTTP service, serving ads from a
	// direct-matching ad network or an RTB exchange.
	var (
		baseURL = *addr
		where   = "edged at " + *addr
		server  *edge.Server
		engine  *core.Engine
		cluster *edgecluster.Cluster
	)
	if *addr == "" {
		provider, _, exchange, err := deploy.NewProvider(*campaigns, *seed, *useRTB)
		if err != nil {
			return err
		}
		if *useRTB {
			fmt.Fprintf(out, "serving ads via RTB second-price auctions (%d bidders, 100 ms deadline)\n", exchange.Bidders())
		}
		var backend edge.Backend
		if *edges > 1 {
			// Traveler events leave the home box, so the edges cover the
			// whole workload extent while secure aggregation still merges
			// only home-region check-ins (the rest count as dropped).
			if cluster, err = deploy.NewCluster(engineCfg, wl.Extent, tcfg.Region.BBox, *edges, *seed); err != nil {
				return err
			}
			backend, where = cluster, fmt.Sprintf("a %d-edge in-process cluster, chaos=%v", *edges, *chaosFlag)
		} else {
			if engine, err = core.NewEngine(engineCfg); err != nil {
				return fmt.Errorf("building engine: %w", err)
			}
			backend, where = engine, "one in-process edge"
		}
		if server, err = edge.NewServer(backend, provider, nil, logger); err != nil {
			return fmt.Errorf("building server: %w", err)
		}
		exchange.Instrument(server.Registry())
		wl.Instrument(server.Registry())
		ts := httptest.NewServer(server.Handler())
		defer ts.Close()
		baseURL = ts.URL
	}
	cl, err := client.New(baseURL, nil, client.WithCodec(codec))
	if err != nil {
		return fmt.Errorf("building client: %w", err)
	}
	fmt.Fprintf(out, "replaying scenario %s through %s, wire=%s\n", mode, where, codec)

	r := &replay{cl: cl, wl: wl, batch: *batch, end: tcfg.End, owner: make(map[string]string)}
	if *chaosFlag {
		r.chaos = newChaos(cluster, *seed, logger)
	}
	if mode == workload.ModeCollude {
		// The collude scenario also obfuscates every event once with
		// planar Laplace instead of the n-fold table: the paper's weak
		// one-time geo-IND baseline.
		if r.oneTime, err = deploy.NewNomadic(); err != nil {
			return err
		}
		r.oneTimeRnd = randx.New(*seed, 0x10CA1)
	}
	stopStats := func() {}
	if engine != nil && *statsEvery > 0 {
		stopStats = startStatsEmitter(out, server, *useRTB, *statsEvery)
	}
	start := time.Now()
	for si := range wl.Streams {
		if err := r.stream(context.Background(), si); err != nil {
			stopStats()
			return err
		}
	}
	elapsed := time.Since(start)
	stopStats()
	fmt.Fprintf(out, "replayed %d users, %d ad requests in %s (%.0f req/s)\n",
		wl.Stats.Users, r.requests, elapsed.Round(time.Millisecond), float64(r.requests)/elapsed.Seconds())

	var degraded, dropped uint64
	if engine != nil {
		printTelemetrySummary(out, server, *useRTB)
	}
	if cluster != nil {
		if degraded, dropped, err = settle(out, cluster, server.Registry(), r.chaos, r.ids, tcfg.End.Add(time.Hour)); err != nil {
			return err
		}
	}
	if server != nil {
		printStageBreakdown(out, server.Registry(), server.Tracer().ActiveSpans())
	}
	fmt.Fprintf(out, "ads fetched from provider: %d; delivered after AOI filtering: %d (%.1f%% bandwidth saved)\n",
		r.fetched, r.delivered, 100*(1-float64(r.delivered)/math.Max(1, float64(r.fetched))))
	fmt.Fprintf(out, "table hits: %d/%d ad responses (%.1f%%); fresh-noise answers within %.0f m of a true top: %d\n",
		r.tableHits, r.requests, 100*float64(r.tableHits)/math.Max(1, float64(r.requests)), nearTopRadius, r.nearTopNoise)

	rAlpha, err := engineCfg.Mechanism.ConfidenceRadius(0.05)
	if err != nil {
		return fmt.Errorf("confidence radius: %w", err)
	}
	ev, err := evaluate(wl, r.defended, r.owner, attack.Options{Theta: 500, ClusterRadius: rAlpha})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scenario %s: users=%d events=%d mutations=%d ad_id_streams=%d entropy_mean=%.2f bits merge_dropped=%d degraded=%d\n",
		mode, wl.Stats.Users, wl.Stats.Events, wl.Stats.Mutations, len(r.owner), ev.entropyMean, dropped, degraded)
	fmt.Fprintf(out, "longitudinal attack on the ad networks' view: top-1 recovered within 200 m for %d/%d users, within 500 m for %d/%d\n",
		ev.hits200, wl.Stats.Users, ev.hits500, wl.Stats.Users)
	if mode != workload.ModeCollude {
		return nil
	}
	col, err := runCollusion(out, wl, r.oneTimeObs, r.defended, r.owner, rAlpha)
	if err != nil {
		return err
	}
	if server != nil {
		attack.RecordCollusion(server.Registry(), &attack.CollusionStats{Joins: col.Joins, Pairs: col.Streams * (col.Streams - 1) / 2})
	}
	return nil
}

// nearTopRadius is how close to one of its user's true top locations a
// fresh-noise answer's true position must be to count as a table miss
// at a top: each such answer hands the ad network an independent noise
// sample of a place the permanent table exists to protect.
const nearTopRadius = 200.0

// replay drives a workload's streams through the client in the order a
// device that uploads its history would: a stream's check-ins in -batch
// chunks, then one /v1/rebuild per identifier it reported under (a
// merge round on a cluster), then one /v1/ads per session.
type replay struct {
	cl    *client.Client
	wl    *workload.Workload
	batch int
	end   time.Time // every rebuild runs at the trace's end
	chaos *chaos    // nil unless -chaos

	oneTime    *geoind.PlanarLaplace // collude only
	oneTimeRnd *randx.Rand

	requests, fetched, delivered, tableHits, nearTopNoise int
	// ids lists every identifier reported under, in rebuild order.
	ids []string
	// defended is every event's output as its ad network saw it, and
	// oneTimeObs the same events under one-time geo-IND (collude only).
	defended, oneTimeObs []attack.Observation
	// owner maps each ad ID to its ground-truth user.
	owner map[string]string
}

// stream replays stream si. The edge keys profiles by the identifier it
// is handed: per-generation ad IDs under churn (a reset looks like a
// brand-new device), the device ID otherwise — collude pseudonyms are
// attached at the bid layer, not on the device.
func (r *replay) stream(ctx context.Context, si int) error {
	st := r.wl.Streams[si]
	if len(st.Events) == 0 {
		return nil
	}
	collude := r.wl.Mode == workload.ModeCollude
	reportID := func(e workload.Event) string {
		if collude {
			return e.User
		}
		return e.AdID
	}
	var ids []string
	for i := 0; i < len(st.Events); i += r.batch {
		chunk := st.Events[i:min(i+r.batch, len(st.Events))]
		for _, e := range chunk {
			ids = append(ids, reportID(e))
		}
		if r.batch == 1 {
			if err := r.cl.Report(ctx, reportID(chunk[0]), chunk[0].Pos, chunk[0].Time); err != nil {
				return fmt.Errorf("reporting for %s: %w", st.User, err)
			}
			continue
		}
		reports := make([]edge.ReportRequest, len(chunk))
		for j, e := range chunk {
			reports[j] = edge.ReportRequest{UserID: reportID(e), Pos: e.Pos, Time: e.Time}
		}
		resp, err := r.cl.ReportBatch(ctx, reports)
		if err != nil {
			return fmt.Errorf("batch-reporting for %s: %w", st.User, err)
		}
		if len(resp.Errors) > 0 {
			return fmt.Errorf("batch-reporting for %s: %d items rejected (first: index %d: %s)",
				st.User, len(resp.Errors), resp.Errors[0].Index, resp.Errors[0].Error)
		}
	}

	if err := r.chaos.kill(si, st.User); err != nil {
		return err
	}
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		if err := r.cl.Rebuild(ctx, id, r.end); err != nil {
			return fmt.Errorf("rebuilding %s: %w", id, err)
		}
		r.ids = append(r.ids, id)
	}
	if err := r.chaos.confirmDown(); err != nil {
		return err
	}

	// The edge computes one obfuscated output per session and serves it
	// to every SDK request in that burst: a burst must never hand the
	// adversary independent noise samples of the same position.
	tops := r.wl.Dataset.Users[si].TrueTops
	sessions := make(map[int]geo.Point)
	for _, e := range st.Events {
		out, ok := sessions[e.Session]
		if !ok {
			resp, err := r.cl.RequestAds(ctx, reportID(e), e.Pos, 10)
			if err != nil {
				return fmt.Errorf("requesting ads for %s: %w", st.User, err)
			}
			out, sessions[e.Session] = resp.Reported, resp.Reported
			r.requests++
			r.fetched += resp.Fetched
			r.delivered += len(resp.Ads)
			if resp.FromTable {
				r.tableHits++
			} else if slices.ContainsFunc(tops, func(t trace.TopLocation) bool { return t.Pos.Dist(e.Pos) <= nearTopRadius }) {
				r.nearTopNoise++
			}
		}
		r.owner[e.AdID] = e.User
		r.defended = append(r.defended, attack.Observation{AdID: e.AdID, Net: e.Net, Loc: out, Time: e.Time})
		if collude {
			pts, err := r.oneTime.Obfuscate(r.oneTimeRnd, e.Pos)
			if err != nil {
				return fmt.Errorf("one-time obfuscation: %w", err)
			}
			r.oneTimeObs = append(r.oneTimeObs, attack.Observation{AdID: e.AdID, Net: e.Net, Loc: pts[0], Time: e.Time})
		}
	}
	return r.chaos.revive(st.User)
}

// chaos kills a deterministic victim edge's endpoint (SetReachable, the
// ground-truth seam) before every other stream's merges and restores it
// after the stream's ad requests. The failure detector, not the
// simulation, drives the cluster's health: seeded probe ticks confirm
// the victim down mid-stream and revive it (journal catch-up) once its
// endpoint answers again. The simulation never calls MarkDown/MarkUp.
// Every method is a no-op on a nil *chaos.
type chaos struct {
	cluster *edgecluster.Cluster
	det     *edgecluster.Detector
	rnd     *randx.Rand
	logger  *slog.Logger
	victim  int // -1 while every endpoint answers
	kills   int
}

func newChaos(cluster *edgecluster.Cluster, seed uint64, logger *slog.Logger) *chaos {
	det := cluster.NewDetector(edgecluster.DetectorConfig{
		Probes: len(cluster.Nodes()), SuspectAfter: 2, ConfirmAfter: 1, Seed: seed,
	})
	return &chaos{cluster: cluster, det: det, rnd: randx.New(seed, 0xC4A05), logger: logger, victim: -1}
}

// kill takes a victim down before odd stream si's merges. They may run
// before or after the detector confirms it, and both paths must exclude
// the victim; one tick starts suspicion.
func (c *chaos) kill(si int, user string) error {
	if c == nil || si%2 == 0 {
		return nil
	}
	c.victim = c.rnd.IntN(len(c.cluster.Nodes()))
	if err := c.cluster.SetReachable(c.victim, false); err != nil {
		return err
	}
	c.logger.Info("chaos: edge endpoint killed", slog.Int("edge", c.victim), slog.String("user", user))
	c.kills++
	if _, err := c.det.Tick(); err != nil {
		return fmt.Errorf("detector: %w", err)
	}
	return nil
}

// confirmDown ticks until the detector confirms the victim down, so the
// stream's ad requests fail over around it.
func (c *chaos) confirmDown() error {
	if c == nil || c.victim < 0 {
		return nil
	}
	n := c.cluster.Nodes()[c.victim]
	if c.tickUntil(n.Down); !n.Down() {
		return fmt.Errorf("chaos: detector never confirmed edge %d down", c.victim)
	}
	return nil
}

// revive restores the victim's endpoint and ticks until the detector
// revives it.
func (c *chaos) revive(user string) error {
	if c == nil || c.victim < 0 {
		return nil
	}
	n := c.cluster.Nodes()[c.victim]
	if err := c.cluster.SetReachable(c.victim, true); err != nil {
		return err
	}
	if c.tickUntil(func() bool { return !n.Down() }); n.Down() {
		return fmt.Errorf("chaos: detector never revived edge %d", c.victim)
	}
	c.logger.Info("chaos: edge auto-revived", slog.Int("edge", c.victim), slog.String("user", user))
	c.victim = -1
	return nil
}

// restoreAll restores every endpoint and ticks until the detector has
// revived every edge (still no manual MarkUp).
func (c *chaos) restoreAll() error {
	if c == nil {
		return nil
	}
	nodes := c.cluster.Nodes()
	for i := range nodes {
		if err := c.cluster.SetReachable(i, true); err != nil {
			return fmt.Errorf("restoring edge %d endpoint: %w", i, err)
		}
	}
	c.tickUntil(func() bool { return !slices.ContainsFunc(nodes, (*edgecluster.Node).Down) })
	for i, n := range nodes {
		if n.Down() {
			return fmt.Errorf("chaos: edge %d still down after endpoints restored", i)
		}
	}
	return nil
}

func (c *chaos) tickUntil(cond func() bool) {
	for i := 0; i < 4*(c.det.Cfg().SuspectAfter+c.det.Cfg().ConfirmAfter) && !cond(); i++ {
		trs, err := c.det.Tick()
		if err != nil {
			c.logger.Warn("chaos: detector tick", slog.Any("err", err))
		}
		for _, tr := range trs {
			c.logger.Info("chaos: detector transition",
				slog.String("node", tr.Node), slog.String("from", tr.From.String()), slog.String("to", tr.To.String()))
		}
	}
}

// settle ends a cluster run. It reads the merge counters, then runs the
// convergence pass — every endpoint restored, the journal drained, and
// the check-ins still pending on edges that were down at their merge
// merged at final — and audits that every edge answers every identifier
// from the same obfuscation table: independent per-edge tables would
// void the (r, ε, δ, n) guarantee. Delta replication must also have
// shipped strictly fewer bytes than whole-table snapshots would have.
func settle(out io.Writer, cluster *edgecluster.Cluster, reg *telemetry.Registry, ch *chaos, ids []string, final time.Time) (degraded, dropped uint64, err error) {
	degraded = reg.Counter("cluster_degraded_merges_total", "").Value()
	dropped = reg.Counter("cluster_merge_dropped_total", "").Value()
	if err := ch.restoreAll(); err != nil {
		return 0, 0, err
	}
	if err := cluster.Reconcile(); err != nil {
		return 0, 0, fmt.Errorf("reconciling: %w", err)
	}
	for _, id := range ids {
		if _, err := cluster.MergeProfiles(id, final); err != nil {
			return 0, 0, fmt.Errorf("final merge for %s: %w", id, err)
		}
	}
	nodes := cluster.Nodes()
	for _, id := range ids {
		want, err := nodes[0].Engine.TableFingerprint(id)
		if err != nil {
			return 0, 0, fmt.Errorf("fingerprinting %s: %w", id, err)
		}
		for _, n := range nodes[1:] {
			got, err := n.Engine.TableFingerprint(id)
			if err != nil {
				return 0, 0, fmt.Errorf("fingerprinting %s at %s: %w", id, n.ID, err)
			}
			if got != want {
				return 0, 0, fmt.Errorf("replication diverged: %s table for %s is %x, %s has %x", n.ID, id, got, nodes[0].ID, want)
			}
		}
	}
	fmt.Fprintf(out, "replication audit: %d identifiers byte-identical across all %d edges\n", len(ids), len(nodes))
	kills := 0
	if ch != nil {
		kills = ch.kills
	}
	downs, revives := reg.Counter("cluster_auto_downs_total", "").Value(), reg.Counter("cluster_auto_revives_total", "").Value()
	fmt.Fprintf(out, "fault tolerance: kills=%d auto_downs=%d auto_revives=%d degraded_merges=%d failovers=%d journal_replays=%d replica_errors=%d merge_dropped=%d\n",
		kills, downs, revives, degraded,
		reg.Counter("cluster_failovers_total", "").Value(),
		reg.Counter("cluster_journal_replays_total", "").Value(),
		reg.Counter("cluster_replica_errors_total", "").Value(),
		dropped)
	repl := cluster.ReplStats()
	fmt.Fprintf(out, "replication: delta_bytes=%d snapshot_bytes=%d ratio=%.3f entries=%d fallbacks=%d\n",
		repl.DeltaBytes, repl.SnapshotBytes, float64(repl.DeltaBytes)/math.Max(1, float64(repl.SnapshotBytes)), repl.Entries, repl.Fallbacks)
	if repl.DeltaBytes == 0 || repl.DeltaBytes >= repl.SnapshotBytes {
		return 0, 0, fmt.Errorf("delta replication did not beat snapshots: delta=%d snapshot=%d", repl.DeltaBytes, repl.SnapshotBytes)
	}
	if ch != nil && (downs == 0 || revives == 0) {
		return 0, 0, fmt.Errorf("chaos ran without detector-driven transitions: auto_downs=%d auto_revives=%d", downs, revives)
	}
	return degraded, dropped, nil
}

// startStatsEmitter prints a telemetry summary every interval until the
// returned stop function is called.
func startStatsEmitter(out io.Writer, server *edge.Server, useRTB bool, every time.Duration) func() {
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
				printTelemetrySummary(out, server, useRTB)
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// printTelemetrySummary condenses a single edge's registry into one or
// two progress lines: engine throughput counters plus latency quantiles
// for the ad-serving path — the live analogue of the paper's Tables
// II/III.
func printTelemetrySummary(out io.Writer, server *edge.Server, useRTB bool) {
	reg := server.Registry()
	adsLatency := reg.Histogram("edge_request_latency_seconds", "", nil, telemetry.L("route", "/v1/ads"))
	selection := reg.Histogram("engine_selection_seconds", "", nil)
	fmt.Fprintf(out, "telemetry: reports=%d table_hits=%d nomadic=%d rebuilds=%d | /v1/ads p50=%s p95=%s | selection p50=%s p95=%s\n",
		reg.Counter("engine_reports_total", "").Value(),
		reg.Counter("engine_table_hits_total", "").Value(),
		reg.Counter("engine_nomadic_total", "").Value(),
		reg.Counter("engine_rebuilds_total", "").Value(),
		quantileString(adsLatency, 0.5), quantileString(adsLatency, 0.95),
		quantileString(selection, 0.5), quantileString(selection, 0.95))
	if useRTB {
		auctionLatency := reg.Histogram("rtb_auction_seconds", "", nil)
		fmt.Fprintf(out, "telemetry: rtb auctions=%d no_fill=%d deadline_miss=%d | auction p50=%s p95=%s (100 ms deadline)\n",
			reg.Counter("rtb_auctions_total", "").Value(),
			reg.Counter("rtb_no_fill_total", "").Value(),
			reg.Counter("rtb_deadline_miss_total", "").Value(),
			quantileString(auctionLatency, 0.5), quantileString(auctionLatency, 0.95))
	}
}

// printStageBreakdown renders the per-stage span latency rows, so a
// slow replay can be pinned to the engine apply, provider fetch, or
// failover stage; the active-span count is a leak check (anything above
// zero means a span was started and never ended).
func printStageBreakdown(out io.Writer, reg *telemetry.Registry, activeSpans int64) {
	fmt.Fprintf(out, "per-stage breakdown (span-sourced):\n")
	for _, st := range tracing.StageBreakdown(reg) {
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-8s count=%-7d p50=%.3fms p95=%.3fms p99=%.3fms overflow=%d\n",
			st.Stage, st.Count, st.P50Ms, st.P95Ms, st.P99Ms, st.Overflow)
	}
	fmt.Fprintf(out, "tracing: active_spans=%d\n", activeSpans)
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
