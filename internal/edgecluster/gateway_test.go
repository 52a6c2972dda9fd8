package edgecluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func newGatewayFixture(t *testing.T) (*Cluster, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	c, err := New(testClusterConfig(t, threeEdges()))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	g.Instrument(reg)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return c, ts, reg
}

func gatewayPost(t *testing.T, url string, m wire.Message, contentType, accept string) *http.Response {
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
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeGatewayBatch(t *testing.T, resp *http.Response) edge.ReportBatchResponse {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out edge.ReportBatchResponse
	if strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentType) {
		if err := wire.Decode(body, &out); err != nil {
			t.Fatalf("binary decode: %v", err)
		}
	} else if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	return out
}

// TestGatewayBatchCodecsAcrossFailover drives the same mixed batch — items
// routing to different nodes, one routed past a down node, one with no
// user id, one outside every coverage circle — through the gateway in both
// codecs, and requires identical semantic results with the response framed
// in the negotiated codec and error indexes in the client's original order.
func TestGatewayBatchCodecsAcrossFailover(t *testing.T) {
	cluster, ts, _ := newGatewayFixture(t)
	if err := cluster.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	batch := &edge.ReportBatchRequest{Reports: []edge.ReportRequest{
		{UserID: "roamer", Pos: geo.Point{X: 10_000, Y: 0}},   // edge 0 down -> fails over to edge 1
		{Pos: geo.Point{X: 0, Y: 20_000}},                     // rejected: no user_id
		{UserID: "roamer", Pos: geo.Point{X: 20_000, Y: 0}},   // edge 1 directly
		{UserID: "lost", Pos: geo.Point{X: 500_000, Y: 0}},    // outside every coverage circle
		{UserID: "roamer", Pos: geo.Point{X: 100, Y: 20_000}}, // edge 2
	}}
	for _, codec := range []string{"application/json", wire.ContentType} {
		resp := gatewayPost(t, ts.URL+"/v1/report/batch", batch, codec, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("codec %s: status = %d", codec, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, codec) {
			t.Fatalf("codec %s: response content type = %q", codec, ct)
		}
		out := decodeGatewayBatch(t, resp)
		if out.Accepted != 3 || len(out.Errors) != 2 {
			t.Fatalf("codec %s: batch response = %+v, want 3 accepted / 2 errors", codec, out)
		}
		if out.Errors[0].Index != 1 || out.Errors[0].Error != "user_id is required" {
			t.Fatalf("codec %s: first error = %+v", codec, out.Errors[0])
		}
		if out.Errors[1].Index != 3 || !strings.Contains(out.Errors[1].Error, "no edge covers") {
			t.Fatalf("codec %s: second error = %+v", codec, out.Errors[1])
		}
	}
	// The failed-over item must have landed on a live node, not the down one.
	if got := cluster.Nodes()[0].Engine.Stats().Users; got != 0 {
		t.Fatalf("down node ingested %d users", got)
	}
}

// TestGatewaySingleReportAndStats covers the binary single-report path
// and Accept-negotiated stats aggregation over every node.
func TestGatewaySingleReportAndStats(t *testing.T) {
	_, ts, reg := newGatewayFixture(t)
	for _, rr := range []edge.ReportRequest{
		{UserID: "u0", Pos: geo.Point{X: 0, Y: 0}},
		{UserID: "u1", Pos: geo.Point{X: 20_000, Y: 0}},
	} {
		resp := gatewayPost(t, ts.URL+"/v1/report", &rr, wire.ContentType, "")
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("binary report status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var stats edge.StatsResponse
	if err := wire.Decode(body, &stats); err != nil {
		t.Fatalf("decoding binary stats: %v", err)
	}
	if stats.Users != 2 {
		t.Fatalf("aggregated users = %d, want 2", stats.Users)
	}

	binReqs := reg.Counter("wire_requests_total", "", telemetry.L("codec", "binary")).Value()
	if binReqs != 3 { // two reports + one stats
		t.Fatalf("wire_requests_total{codec=binary} = %d, want 3", binReqs)
	}
}

// TestGatewayStatsCountsEachUserOnce pins /v1/stats to cluster-wide
// counts. A user whose merged table replicated to all three edges is one
// user with one protected top, not one per edge; a second user who
// reported on one edge and was never merged adds a user but no table.
func TestGatewayStatsCountsEachUserOnce(t *testing.T) {
	cluster, ts, _ := newGatewayFixture(t)
	home := geo.Point{X: 125, Y: 125} // edge-00, mid merge cell
	rnd := randx.New(6, 6)
	at := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 60; i++ {
		at = at.Add(2 * time.Hour)
		if _, err := cluster.Report("roamer", home.Add(rnd.GaussianPolar(5)), at); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cluster.MergeProfiles("roamer", at); err != nil {
		t.Fatal(err)
	}
	for _, n := range cluster.Nodes() {
		if st := n.Engine.Stats(); st != (core.EngineStats{Users: 1, ProtectedTops: 1, Candidates: 10}) {
			t.Fatalf("%s stats = %+v, want the one merged table replicated", n.ID, st)
		}
	}
	if _, err := cluster.Report("visitor", geo.Point{X: 20_000, Y: 0}, at); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got edge.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := (edge.StatsResponse{Users: 2, ProtectedTops: 1, TotalCandidate: 10}); got != want {
		t.Fatalf("gateway stats = %+v, want %+v", got, want)
	}
}

// TestGatewayNonFinitePos pins the gateway's position check: a binary
// report at a NaN or infinite coordinate is the client's mistake, 400,
// not 503 "no edge covers this location"; in a batch only that item
// fails.
func TestGatewayNonFinitePos(t *testing.T) {
	cluster, ts, _ := newGatewayFixture(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := gatewayPost(t, ts.URL+"/v1/report",
			&edge.ReportRequest{UserID: "bad", Pos: geo.Point{X: bad, Y: 0}}, wire.ContentType, "application/json")
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "pos must be finite") {
			t.Errorf("report at x=%g: status %d, body %q; want 400 pos must be finite", bad, resp.StatusCode, body)
		}
		batch := &edge.ReportBatchRequest{Reports: []edge.ReportRequest{
			{UserID: "good", Pos: geo.Point{X: 0, Y: 0}},
			{UserID: "bad", Pos: geo.Point{X: 0, Y: bad}},
		}}
		out := decodeGatewayBatch(t, gatewayPost(t, ts.URL+"/v1/report/batch", batch, wire.ContentType, ""))
		if out.Accepted != 1 || len(out.Errors) != 1 || out.Errors[0] != (edge.BatchItemError{Index: 1, Error: "pos must be finite"}) {
			t.Errorf("batch with y=%g: %+v, want 1 accepted and item 1 refused", bad, out)
		}
	}
	users := 0
	for _, n := range cluster.Nodes() {
		users += n.Engine.Stats().Users
	}
	if users != 1 {
		t.Errorf("cluster holds %d users, want only the batch's good user", users)
	}
}

// TestGatewayErrorsAndHealth pins the unavailable/decode error envelopes
// and the health endpoint's live-edge count.
func TestGatewayErrorsAndHealth(t *testing.T) {
	cluster, ts, reg := newGatewayFixture(t)

	// No coverage -> 503 framed in the request's codec.
	resp := gatewayPost(t, ts.URL+"/v1/report",
		&edge.ReportRequest{UserID: "far", Pos: geo.Point{X: 900_000, Y: 0}}, wire.ContentType, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncovered report status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var env wire.ErrorResponse
	if err := wire.Decode(body, &env); err != nil {
		t.Fatalf("decoding binary 503 envelope: %v", err)
	}
	if !strings.Contains(env.Error, "no edge covers") {
		t.Fatalf("503 error = %q", env.Error)
	}

	// A garbage binary frame counts one decode error.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/report", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame status = %d", bresp.StatusCode)
	}
	if got := reg.Counter("wire_decode_errors_total", "", telemetry.L("codec", "binary")).Value(); got != 1 {
		t.Fatalf("wire_decode_errors_total{codec=binary} = %d, want 1", got)
	}

	if err := cluster.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status    string `json:"status"`
		LiveEdges int    `json:"live_edges"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.LiveEdges != 2 {
		t.Fatalf("health = %+v, want ok with 2 live edges", health)
	}
}

// TestGatewayBodyLimits is the regression for the gateway's hardcoded
// body-limit copies: both fronts must enforce the SAME per-route limits
// (edge.MaxRequestBody / edge.MaxBatchBody), rejecting oversized bodies
// instead of buffering whatever a client streams.
func TestGatewayBodyLimits(t *testing.T) {
	_, ts, _ := newGatewayFixture(t)

	post := func(path string, size int) int {
		t.Helper()
		body := bytes.NewReader(bytes.Repeat([]byte("x"), size))
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := post("/v1/report", edge.MaxRequestBody+1); got != http.StatusBadRequest {
		t.Errorf("report body over MaxRequestBody: status %d, want %d", got, http.StatusBadRequest)
	}
	if got := post("/v1/report/batch", edge.MaxBatchBody+1); got != http.StatusBadRequest {
		t.Errorf("batch body over MaxBatchBody: status %d, want %d", got, http.StatusBadRequest)
	}
	// A batch bigger than the single-message limit but under the batch
	// limit must NOT be rejected for size (it fails later, on content):
	// proves the two routes use their own limits, not one shared cap.
	padded := bytes.Repeat([]byte(" "), edge.MaxRequestBody+1)
	copy(padded, "{\"reports\":[]}")
	resp, err := http.Post(ts.URL+"/v1/report/batch", "application/json", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "non-empty") {
		t.Errorf("mid-size batch: status %d body %q, want empty-reports rejection", resp.StatusCode, raw)
	}
}

// TestGatewayServeHardened boots Gateway.Serve on a real listener and
// checks it serves traffic and shuts down on context cancel; the
// slowloris bounds themselves are pinned by edge.TestNewHTTPServer.
func TestGatewayServeHardened(t *testing.T) {
	c, err := New(testClusterConfig(t, threeEdges()))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Serve(ctx, ln) }()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
