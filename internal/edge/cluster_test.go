package edge_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// The cluster tests drive a three-edge cluster through the same server
// a single edge runs on.

// home is nearest edge-00. Two of the ad network's four campaigns sit
// inside its 5 km AOI; every campaign's radius reaches any obfuscated
// position near it.
var (
	home      = geo.Point{X: 125, Y: 125}
	uncovered = geo.Point{X: 900_000, Y: 0}
)

type clusterFixture struct {
	cluster *edgecluster.Cluster
	srv     *edge.Server
	ts      *httptest.Server
	mu      sync.Mutex
	now     time.Time
}

// newClusterFixture serves three overlapping edges, so a down edge has
// a failover target, with the given nomadic budget per edge.
func newClusterFixture(t *testing.T, budget *geoind.Loss) *clusterFixture {
	t.Helper()
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	c, err := edgecluster.New(edgecluster.Config{
		Engine: core.Config{Mechanism: mech, NomadicMechanism: nomadic, NomadicBudget: budget},
		Coverage: []geo.Circle{
			{Center: geo.Point{X: 0, Y: 0}, Radius: 15_000},
			{Center: geo.Point{X: 5_000, Y: 0}, Radius: 15_000},
			{Center: geo.Point{X: 0, Y: 5_000}, Radius: 15_000},
		},
		MergeRegion: geo.BBox{MinX: -50_000, MinY: -50_000, MaxX: 50_000, MaxY: 50_000},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	network, err := adnet.NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, loc := range []geo.Point{{X: 1_000, Y: 0}, {X: 0, Y: -2_000}, {X: 20_000, Y: 0}, {X: 0, Y: -30_000}} {
		id := fmt.Sprintf("campaign-%d", i)
		if err := network.Register(adnet.Campaign{ID: id, Location: loc, Radius: 60_000, Ad: adnet.Ad{ID: id, Location: loc}}); err != nil {
			t.Fatal(err)
		}
	}
	f := &clusterFixture{cluster: c, now: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	f.srv, err = edge.NewServer(c, network, f.clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.ts = httptest.NewServer(f.srv.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

func (f *clusterFixture) clock() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(time.Minute)
	return f.now
}

// post sends m to path in contentType's codec.
func (f *clusterFixture) post(t *testing.T, path, contentType string, m wire.Message) *http.Response {
	t.Helper()
	var payload []byte
	if contentType == wire.ContentType {
		payload = wire.Encode(m)
	} else {
		var err error
		if payload, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(f.ts.URL+path, contentType, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postJSON sends a control-plane body, which is JSON only.
func (f *clusterFixture) postJSON(t *testing.T, path string, body any) *http.Response {
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

func (f *clusterFixture) get(t *testing.T, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decode checks resp's status and decodes its body into out in the codec
// its Content-Type names.
func decode(t *testing.T, resp *http.Response, status int, out any) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("%s %s: status %d, want %d; body %q", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, status, body)
	}
	if m, ok := out.(wire.Message); ok && strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentType) {
		err = wire.Decode(body, m)
	} else {
		err = json.Unmarshal(body, out)
	}
	if err != nil {
		t.Fatalf("decoding %s: %v", resp.Request.URL.Path, err)
	}
}

// expectStatus checks resp's status and discards its body.
func expectStatus(t *testing.T, resp *http.Response, status int) {
	t.Helper()
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != status {
		t.Fatalf("%s %s: status %d, want %d; body %q", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, status, body)
	}
}

// homeBatch is n check-ins around home plus one uncovered item last.
func homeBatch(rnd *randx.Rand, userID string, n int) *edge.ReportBatchRequest {
	b := &edge.ReportBatchRequest{}
	for i := 0; i < n; i++ {
		b.Reports = append(b.Reports, edge.ReportRequest{UserID: userID, Pos: home.Add(rnd.GaussianPolar(10))})
	}
	b.Reports = append(b.Reports, edge.ReportRequest{UserID: userID, Pos: uncovered})
	return b
}

// TestClusterMetricsGolden locks a cluster's /metrics exposition after
// fixed traffic: a report, a batch with one uncovered item, a merge
// through /v1/rebuild, an ads request, the read routes, and one report
// failed over past a down edge. Regenerate with:
// go test ./internal/edge/ -run MetricsGolden -update-golden
func TestClusterMetricsGolden(t *testing.T) {
	f := newClusterFixture(t, nil)
	expectStatus(t, f.get(t, "/healthz"), http.StatusOK)
	expectStatus(t, f.post(t, "/v1/report", "application/json", &edge.ReportRequest{UserID: "golden", Pos: home}), http.StatusNoContent)
	var batch edge.ReportBatchResponse
	decode(t, f.post(t, "/v1/report/batch", wire.ContentType, homeBatch(randx.New(42, 7), "golden", 59)), http.StatusOK, &batch)
	if batch.Accepted != 59 || len(batch.Errors) != 1 {
		t.Fatalf("batch = %+v, want 59 accepted and the uncovered item refused", batch)
	}
	expectStatus(t, f.postJSON(t, "/v1/rebuild", edge.RebuildRequest{UserID: "golden"}), http.StatusNoContent)
	expectStatus(t, f.post(t, "/v1/ads", "application/json", &edge.AdsRequest{UserID: "golden", Pos: home, Limit: 5}), http.StatusOK)
	for _, path := range []string{"/v1/profile?user=golden", "/v1/privacy?user=golden", "/v1/stats", "/v1/fingerprint?user=golden"} {
		expectStatus(t, f.get(t, path), http.StatusOK)
	}
	if err := f.cluster.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	expectStatus(t, f.post(t, "/v1/report", "application/json", &edge.ReportRequest{UserID: "golden", Pos: home}), http.StatusNoContent)
	edge.CheckMetricsGolden(t, f.ts.URL, "cluster_metrics.golden")
}

// TestClusterServesEveryRoute drives every route of a cluster-backed
// server, in both codecs where a route has two, and checks each answer
// against the cluster's own state.
func TestClusterServesEveryRoute(t *testing.T) {
	f := newClusterFixture(t, &geoind.Loss{Epsilon: 10, Delta: 1})
	c := f.cluster
	codecs := []string{"application/json", wire.ContentType}

	var health map[string]string
	decode(t, f.get(t, "/healthz"), http.StatusOK, &health)
	if len(health) != 1 || health["status"] != "ok" {
		t.Fatalf("/healthz = %v", health)
	}

	// Reports and batches in both codecs; a batch's uncovered item is
	// refused alone.
	rnd := randx.New(9, 9)
	for _, ct := range codecs {
		expectStatus(t, f.post(t, "/v1/report", ct, &edge.ReportRequest{UserID: "u", Pos: home}), http.StatusNoContent)
		var out edge.ReportBatchResponse
		decode(t, f.post(t, "/v1/report/batch", ct, homeBatch(rnd, "u", 29)), http.StatusOK, &out)
		if out.Accepted != 29 || len(out.Errors) != 1 || out.Errors[0].Index != 29 || !strings.Contains(out.Errors[0].Error, "no edge covers") {
			t.Fatalf("%s batch = %+v, want 29 accepted and item 29 uncovered", ct, out)
		}
	}

	// Before its first merge the user has no profile, a stranger is
	// unknown, and the fingerprint is the empty table's.
	expectStatus(t, f.get(t, "/v1/profile?user=u"), http.StatusConflict)
	expectStatus(t, f.get(t, "/v1/profile?user=stranger"), http.StatusNotFound)
	expectStatus(t, f.postJSON(t, "/v1/rebuild", edge.RebuildRequest{UserID: "stranger"}), http.StatusNotFound)
	fingerprint := func() string {
		var fp edge.FingerprintResponse
		decode(t, f.get(t, "/v1/fingerprint?user=u"), http.StatusOK, &fp)
		return fp.Fingerprint
	}
	if got, want := fingerprint(), fmt.Sprintf("%016x", core.FingerprintSeed); got != want {
		t.Fatalf("fingerprint before the first merge = %s, want the empty table's %s", got, want)
	}

	// /v1/rebuild runs a merge round: every edge then holds the table
	// /v1/fingerprint names, and /v1/profile answers the merged tops.
	expectStatus(t, f.postJSON(t, "/v1/rebuild", edge.RebuildRequest{UserID: "u"}), http.StatusNoContent)
	fp := fingerprint()
	if fp == fmt.Sprintf("%016x", core.FingerprintSeed) {
		t.Fatal("the merge built no table")
	}
	var profile edge.ProfileResponse
	decode(t, f.get(t, "/v1/profile?user=u"), http.StatusOK, &profile)
	if len(profile.Tops) == 0 {
		t.Fatal("merged profile has no tops")
	}
	for _, n := range c.Nodes() {
		got, err := n.Engine.TableFingerprint("u")
		if err != nil {
			t.Fatal(err)
		}
		if s := fmt.Sprintf("%016x", got); s != fp {
			t.Errorf("%s holds table %s, /v1/fingerprint says %s", n.ID, s, fp)
		}
		tops, err := n.Engine.TopLocations("u")
		if err != nil {
			t.Fatal(err)
		}
		if len(tops) != len(profile.Tops) {
			t.Fatalf("%s holds %d tops, /v1/profile %d", n.ID, len(tops), len(profile.Tops))
		}
		for i, lf := range tops {
			if profile.Tops[i] != (edge.ProfileEntry{Loc: lf.Loc, Freq: lf.Freq}) {
				t.Errorf("%s top %d = %+v, /v1/profile %+v", n.ID, i, lf, profile.Tops[i])
			}
		}
	}

	// Ads at home come from the table and are cut down to the AOI.
	for _, ct := range codecs {
		var ads edge.AdsResponse
		decode(t, f.post(t, "/v1/ads", ct, &edge.AdsRequest{UserID: "u", Pos: home}), http.StatusOK, &ads)
		if !ads.FromTable || ads.Fetched != 4 || len(ads.Ads) != 2 {
			t.Fatalf("%s ads: from_table=%v fetched=%d delivered=%d, want a table answer with 2 of 4 ads", ct, ads.FromTable, ads.Fetched, len(ads.Ads))
		}
		for _, ad := range ads.Ads {
			if d := ad.Location.Dist(home); d > 5_000 {
				t.Errorf("%s ads: %s delivered %.0f m from the user", ct, ad.ID, d)
			}
		}
	}

	// No live edge covering the position is a 503, in the request's
	// codec: outside every disk, and inside them with every edge down.
	for _, ct := range codecs {
		expectStatus(t, f.post(t, "/v1/ads", ct, &edge.AdsRequest{UserID: "u", Pos: uncovered}), http.StatusServiceUnavailable)
	}
	for i := range c.Nodes() {
		if err := c.MarkDown(i); err != nil {
			t.Fatal(err)
		}
	}
	var env wire.ErrorResponse
	decode(t, f.post(t, "/v1/ads", wire.ContentType, &edge.AdsRequest{UserID: "u", Pos: home}), http.StatusServiceUnavailable, &env)
	if !strings.Contains(env.Error, "no live edge") {
		t.Errorf("all-down 503 error = %q", env.Error)
	}
	for i := range c.Nodes() {
		if err := c.MarkUp(i); err != nil {
			t.Fatal(err)
		}
	}

	// Away from home the requests get fresh noise, at edge-01 and at
	// edge-02; /v1/privacy sums every edge's ledger.
	for _, pos := range []geo.Point{{X: 9_000, Y: 0}, {X: 0, Y: 9_000}} {
		var ads edge.AdsResponse
		decode(t, f.post(t, "/v1/ads", "application/json", &edge.AdsRequest{UserID: "u", Pos: pos}), http.StatusOK, &ads)
		if ads.FromTable {
			t.Fatalf("ads at %v answered from the table", pos)
		}
	}
	var want geoind.Loss
	spent := 0
	for _, n := range c.Nodes() {
		loss, err := n.Engine.NomadicLoss("u")
		if err != nil {
			t.Fatal(err)
		}
		want.Epsilon += loss.Epsilon
		want.Delta += loss.Delta
		if loss.Epsilon > 0 {
			spent++
		}
	}
	if spent != 2 {
		t.Fatalf("%d edges spent budget, want 2", spent)
	}
	var privacy edge.PrivacyResponse
	decode(t, f.get(t, "/v1/privacy?user=u"), http.StatusOK, &privacy)
	if privacy.Epsilon != want.Epsilon || privacy.Delta != want.Delta {
		t.Errorf("/v1/privacy = %+v, want the edges' sum %+v", privacy, want)
	}

	// /v1/stats in both codecs is the cluster's count.
	st := c.Stats()
	for _, ct := range codecs {
		req, err := http.NewRequest(http.MethodGet, f.ts.URL+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var got edge.StatsResponse
		decode(t, resp, http.StatusOK, &got)
		if want := (edge.StatsResponse{Users: st.Users, ProtectedTops: st.ProtectedTops, TotalCandidate: st.Candidates}); got != want {
			t.Errorf("%s stats = %+v, want %+v", ct, got, want)
		}
	}

	// A report failed over past a down edge-00 leaves a trace with a
	// failover span under the caller's trace ID.
	if err := c.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	ctx, root := tracing.New(99).StartTrace(t.Context(), "caller")
	traceID, _ := tracing.ContextTraceID(ctx)
	tp, _ := tracing.ContextTraceparent(ctx)
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/report", strings.NewReader(`{"user_id":"u","pos":{"x":125,"y":125}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tracing.TraceparentHeader, tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	expectStatus(t, resp, http.StatusNoContent)
	root.End()
	var traces struct {
		ActiveSpans int64                 `json:"active_spans"`
		Traces      []tracing.TraceRecord `json:"traces"`
	}
	decode(t, f.get(t, "/debug/traces?n="+strconv.Itoa(tracing.DefaultRingSize)), http.StatusOK, &traces)
	if traces.ActiveSpans != 0 {
		t.Errorf("active_spans = %d, want 0", traces.ActiveSpans)
	}
	failover := false
	for _, tr := range traces.Traces {
		if tr.TraceID != traceID {
			continue
		}
		for _, sp := range tr.Spans {
			failover = failover || sp.Stage == tracing.StageFailover.String()
		}
	}
	if !failover {
		t.Errorf("trace %s of the failed-over report has no failover span", traceID)
	}

	// /metrics serves the server's families next to the cluster's.
	mresp := f.get(t, "/metrics")
	defer mresp.Body.Close()
	exposition, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"\ncluster_nodes_down 1\n",
		"\ncluster_merges_total 1\n",
		"\nedge_http_requests_total{code=\"2xx\",route=\"/v1/ads\"} 4\n",
		"\nedge_http_requests_total{code=\"5xx\",route=\"/v1/ads\"} 3\n", // the three 503s
		"\nwire_requests_total{codec=\"binary\"} ",
		"\ntracing_span_seconds_count{stage=\"failover\"} ",
	} {
		if !strings.Contains(string(exposition), line) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(line))
		}
	}
}

// TestClusterConcurrentTraffic serves reports, ads and scrapes from
// several goroutines at once while the server's telemetry moves to new
// registries, so the race detector sees the cluster's serving calls and
// the metrics swap side by side.
func TestClusterConcurrentTraffic(t *testing.T) {
	f := newClusterFixture(t, nil)
	post := func(path string, m wire.Message) int {
		resp, err := http.Post(f.ts.URL+path, wire.ContentType, bytes.NewReader(wire.Encode(m)))
		if err != nil {
			t.Error(err)
			return 0
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", g)
			for i := 0; i < 20; i++ {
				pos := geo.Point{X: float64(g) * 2_000, Y: float64(i) * 10}
				if code := post("/v1/report", &edge.ReportRequest{UserID: user, Pos: pos}); code != http.StatusNoContent {
					t.Errorf("%s report %d: status %d", user, i, code)
				}
				if code := post("/v1/ads", &edge.AdsRequest{UserID: user, Pos: pos}); code != http.StatusOK {
					t.Errorf("%s ads %d: status %d", user, i, code)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			f.srv.Instrument(telemetry.NewRegistry())
			resp, err := http.Get(f.ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()
	reg := f.srv.Registry()
	if got := reg.Gauge("edge_http_in_flight_requests", "").Value(); got != 0 {
		t.Errorf("in-flight after traffic = %d, want 0", got)
	}
	if got := f.srv.Tracer().ActiveSpans(); got != 0 {
		t.Errorf("active spans after traffic = %d, want 0", got)
	}
}
