package edge

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/adnet"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// metricsFixture is like testFixture but keeps the *Server so tests can
// reach its telemetry registry.
type metricsFixture struct {
	engine *core.Engine
	store  *wal.Store
	srv    *Server
	ts     *httptest.Server
	now    time.Time
}

func newMetricsFixture(t *testing.T) *metricsFixture {
	t.Helper()
	return newMetricsFixtureOpts(t)
}

func newMetricsFixtureOpts(t *testing.T, opts ...ServerOption) *metricsFixture {
	t.Helper()
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	network, err := adnet.NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &metricsFixture{engine: engine, now: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	// Durable mode mirrors edged -data-dir: every mutation is WAL-logged
	// (fsync on each append, so counts stay deterministic) and the wal_*
	// metric families join the exposition.
	store, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if _, err := engine.Recover(store); err != nil {
		t.Fatal(err)
	}
	f.store = store
	clock := func() time.Time {
		f.now = f.now.Add(time.Minute)
		return f.now
	}
	srv, err := NewServer(engine, network, clock, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f.srv = srv
	store.Instrument(srv.Registry())
	instrumentScenario(t, srv.Registry())
	f.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

// instrumentScenario registers the workload and collusion telemetry
// families into the fixture registry the way lbasim's scenario runner
// does, from a tiny fixed collude workload, so the golden exposition
// locks workload_events_total{mode=...} and attack_collusion_*_total.
func instrumentScenario(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	tcfg := trace.DefaultConfig()
	tcfg.NumUsers = 6
	tcfg.MaxCheckIns = 30
	tcfg.Seed = 5
	wl, err := workload.Build(workload.Synthetic{Config: tcfg}, workload.Config{Mode: workload.ModeCollude, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wl.Instrument(reg)
	var obs []attack.Observation
	for _, s := range wl.Streams {
		for _, e := range s.Events {
			obs = append(obs, attack.Observation{AdID: e.AdID, Net: e.Net, Loc: e.Pos, Time: e.Time})
		}
	}
	_, stats, err := attack.Collude(obs, attack.CollusionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	attack.RecordCollusion(reg, &stats)
}

func (f *metricsFixture) post(t *testing.T, path string, body any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// driveGoldenTraffic issues a fixed, deterministic request sequence.
func driveGoldenTraffic(t *testing.T, f *metricsFixture) {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	home := geo.Point{X: 2000, Y: 2000}
	rnd := randx.New(42, 7)
	for i := 0; i < 60; i++ {
		resp := f.post(t, "/v1/report", ReportRequest{UserID: "golden", Pos: home.Add(rnd.GaussianPolar(10))})
		resp.Body.Close()
	}
	resp = f.post(t, "/v1/rebuild", RebuildRequest{UserID: "golden"})
	resp.Body.Close()
	resp = f.post(t, "/v1/ads", AdsRequest{UserID: "golden", Pos: home, Limit: 5})
	resp.Body.Close()
	for _, path := range []string{"/v1/profile?user=golden", "/v1/privacy?user=golden", "/v1/stats", "/v1/fingerprint?user=golden"} {
		resp, err := http.Get(f.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// One validation failure populates the 4xx counter.
	resp = f.post(t, "/v1/report", ReportRequest{Pos: home})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user_id: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// One checkpoint populates the wal checkpoint families.
	lsn, data, err := f.engine.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.WriteCheckpoint(lsn, data); err != nil {
		t.Fatal(err)
	}
}

// latencyValueLine matches exposition lines whose value depends on
// wall-clock timing: latency histogram buckets, sums, and overflow
// counts (an observation past the top bound is timing, not traffic).
// The _count lines stay exact (they count requests, not durations).
var latencyValueLine = regexp.MustCompile(`(?m)^((?:edge_request_latency_seconds|engine_rebuild_seconds|engine_selection_seconds|tracing_span_seconds|wal_fsync_seconds)_(?:bucket|sum|overflow)(?:\{[^}]*\})?) .*$`)

// walTimingLine matches the remaining wall-clock-dependent wal series:
// the last checkpoint's duration gauge.
var walTimingLine = regexp.MustCompile(`(?m)^(wal_checkpoint_duration_seconds) .*$`)

// memValueLine matches the process-memory gauges, whose values depend
// on allocator and GC state, not traffic.
var memValueLine = regexp.MustCompile(`(?m)^(mem_(?:heap_alloc_bytes|sys_bytes|gc_total)) .*$`)

func normalizeMetrics(s string) string {
	s = latencyValueLine.ReplaceAllString(s, "$1 *")
	s = walTimingLine.ReplaceAllString(s, "$1 *")
	return memValueLine.ReplaceAllString(s, "$1 *")
}

// TestMetricsGolden locks the full /metrics exposition — family set,
// series labels, and every timing-independent value — to a golden file.
// Regenerate with: go test ./internal/edge/ -run MetricsGolden -update-golden
func TestMetricsGolden(t *testing.T) {
	f := newMetricsFixture(t)
	driveGoldenTraffic(t, f)
	checkMetricsGolden(t, f.ts.URL, "metrics.golden")
}

// checkMetricsGolden scrapes url's /metrics, normalises its timing lines
// and compares the exposition with testdata/name, which -update-golden
// rewrites.
func checkMetricsGolden(t *testing.T, url, name string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	got := normalizeMetrics(body.String())

	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics exposition drifted from golden file (rerun with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestAdsPopulatesLatencyBuckets asserts the /v1/ads middleware records
// one latency observation per request into the route's histogram.
func TestAdsPopulatesLatencyBuckets(t *testing.T) {
	f := newMetricsFixture(t)
	reg := f.srv.Registry()
	h := reg.Histogram(metricHTTPLatency, "", nil, telemetry.L("route", "/v1/ads"))
	if got := h.Count(); got != 0 {
		t.Fatalf("latency count before traffic = %d", got)
	}

	const requests = 3
	for i := 0; i < requests; i++ {
		resp := f.post(t, "/v1/ads", AdsRequest{UserID: "u", Pos: geo.Point{X: 100, Y: 100}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ads status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	s := h.Snapshot()
	if s.Count != requests {
		t.Errorf("latency observations = %d, want %d", s.Count, requests)
	}
	var inBuckets uint64
	for _, c := range s.Counts {
		inBuckets += c
	}
	if inBuckets != requests {
		t.Errorf("bucket mass = %d, want %d", inBuckets, requests)
	}
	if s.Sum <= 0 {
		t.Errorf("latency sum = %g, want > 0", s.Sum)
	}
	if got := reg.Counter(metricHTTPRequests, "", telemetry.L("route", "/v1/ads"), telemetry.L("code", "2xx")).Value(); got != requests {
		t.Errorf("2xx counter = %d, want %d", got, requests)
	}
	if got := reg.Gauge(metricHTTPInFlight, "").Value(); got != 0 {
		t.Errorf("in-flight after traffic = %d, want 0", got)
	}
}

// TestStatsMatchesEngineWalk pins the O(1) /v1/stats response to the
// values a full table walk would produce.
func TestStatsMatchesEngineWalk(t *testing.T) {
	f := newMetricsFixture(t)
	driveGoldenTraffic(t, f)

	resp, err := http.Get(f.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}

	var want StatsResponse
	for _, id := range f.engine.Users() {
		want.Users++
		entries, err := f.engine.Table(id)
		if err != nil {
			t.Fatal(err)
		}
		want.ProtectedTops += len(entries)
		for _, e := range entries {
			want.TotalCandidate += len(e.Candidates)
		}
	}
	if stats != want {
		t.Errorf("/v1/stats = %+v, engine walk = %+v", stats, want)
	}
	if stats.Users == 0 || stats.ProtectedTops == 0 {
		t.Errorf("implausible stats %+v", stats)
	}
}

// TestMetricsEndpointSelfExcludes checks the scrape endpoint does not
// count itself in the serving-path metrics.
func TestMetricsEndpointSelfExcludes(t *testing.T) {
	f := newMetricsFixture(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(f.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(body.String(), `route="/metrics"`) {
		t.Error("scrape endpoint instrumented itself")
	}
}
