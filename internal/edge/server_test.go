package edge

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
	"repro/internal/wire"
)

// testFixture bundles a running edge server with its engine and network.
type testFixture struct {
	engine  *core.Engine
	network *adnet.Network
	srv     *Server
	server  *httptest.Server
	now     time.Time
	mu      sync.Mutex
}

func (f *testFixture) clock() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(time.Minute)
	return f.now
}

func newFixture(t *testing.T) *testFixture {
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
	f := &testFixture{
		engine:  engine,
		network: network,
		now:     time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	f.srv, err = NewServer(engine, network, f.clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.server = httptest.NewServer(f.srv.Handler())
	t.Cleanup(f.server.Close)
	return f
}

func (f *testFixture) post(t *testing.T, path string, body any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.server.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestNewServerValidation(t *testing.T) {
	network, err := adnet.NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(nil, network, nil, nil); err == nil {
		t.Error("nil engine expected error")
	}
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{Mechanism: mech, NomadicMechanism: mech})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(engine, nil, nil, nil); err == nil {
		t.Error("nil provider expected error")
	}
}

func TestHealthEndpoint(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.server.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestReportValidation(t *testing.T) {
	f := newFixture(t)
	resp := f.post(t, "/v1/report", ReportRequest{Pos: geo.Point{X: 1, Y: 1}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing user_id: status = %d", resp.StatusCode)
	}

	// Unknown fields are rejected.
	raw := []byte(`{"user_id":"u","pos":{"x":1,"y":2},"bogus":true}`)
	resp2, err := http.Post(f.server.URL+"/v1/report", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d", resp2.StatusCode)
	}

	resp3 := f.post(t, "/v1/report", ReportRequest{UserID: "u", Pos: geo.Point{X: 1, Y: 2}})
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusNoContent {
		t.Errorf("valid report: status = %d", resp3.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.server.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route: status = %d", resp.StatusCode)
	}
}

func TestProfileEndpointStates(t *testing.T) {
	f := newFixture(t)
	// No user param.
	resp, err := http.Get(f.server.URL + "/v1/profile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing user: %d", resp.StatusCode)
	}
	// Unknown user.
	resp, err = http.Get(f.server.URL + "/v1/profile?user=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown user: %d", resp.StatusCode)
	}
	// Known user without a profile yet.
	r := f.post(t, "/v1/report", ReportRequest{UserID: "newbie", Pos: geo.Point{}})
	r.Body.Close()
	resp, err = http.Get(f.server.URL + "/v1/profile?user=newbie")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("no profile yet: %d", resp.StatusCode)
	}
}

func TestRebuildEndpoint(t *testing.T) {
	f := newFixture(t)
	resp := f.post(t, "/v1/rebuild", RebuildRequest{UserID: "ghost"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("rebuild unknown user: %d", resp.StatusCode)
	}
	r := f.post(t, "/v1/report", ReportRequest{UserID: "u", Pos: geo.Point{X: 1, Y: 1}})
	r.Body.Close()
	resp = f.post(t, "/v1/rebuild", RebuildRequest{UserID: "u"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("rebuild known user: %d", resp.StatusCode)
	}
}

// TestEndToEndPrivacyBoundary is the system integration test: a user
// reports from home repeatedly; ad requests must (a) reach the provider
// only with obfuscated coordinates, (b) produce AOI-relevant ads after
// filtering, and (c) keep the provider-visible locations inside the
// permanent candidate set.
func TestEndToEndPrivacyBoundary(t *testing.T) {
	f := newFixture(t)
	home := geo.Point{X: 0, Y: 0}
	rnd := randx.New(3, 3)

	// Campaign inside the AOI (1 km from home) and one far outside.
	mustRegister := func(id string, at geo.Point, radius float64) {
		t.Helper()
		if err := f.network.Register(adnet.Campaign{
			ID: id, Location: at, Radius: radius,
			Ad: adnet.Ad{ID: "ad-" + id, Title: id, Location: at},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Radius 30 km so even heavily obfuscated requests still match it.
	mustRegister("nearby-cafe", geo.Point{X: 1000, Y: 0}, 30_000)
	mustRegister("far-mall", geo.Point{X: 60_000, Y: 0}, 30_000)

	// Feed check-ins from home, then force the profile rebuild.
	for i := 0; i < 120; i++ {
		resp := f.post(t, "/v1/report", ReportRequest{
			UserID: "alice",
			Pos:    home.Add(rnd.GaussianPolar(12)),
		})
		resp.Body.Close()
	}
	resp := f.post(t, "/v1/rebuild", RebuildRequest{UserID: "alice"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("rebuild failed: %d", resp.StatusCode)
	}

	entries, err := f.engine.Table("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no obfuscation table entry for alice")
	}
	allowed := make(map[geo.Point]bool)
	for _, e := range entries {
		for _, c := range e.Candidates {
			allowed[c] = true
		}
	}

	for i := 0; i < 25; i++ {
		resp := f.post(t, "/v1/ads", AdsRequest{UserID: "alice", Pos: home})
		var ar AdsResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !ar.FromTable {
			t.Fatal("top-location request not served from permanent table")
		}
		if !allowed[ar.Reported] {
			t.Fatalf("reported location %v escaped the permanent candidate set", ar.Reported)
		}
		if ar.Reported == home {
			t.Fatal("true location leaked verbatim")
		}
		// All delivered ads must be inside the true AOI (5 km default).
		for _, ad := range ar.Ads {
			if ad.Location.Dist(home) > 5000 {
				t.Fatalf("irrelevant ad delivered: %v", ad)
			}
		}
	}

	// The attacker-side view: every logged bid location is obfuscated.
	for _, rec := range f.network.BidLog() {
		if rec.Loc == home {
			t.Fatal("bid log contains the raw location")
		}
		if !allowed[rec.Loc] {
			t.Fatalf("bid log contains non-candidate location %v", rec.Loc)
		}
	}
	if f.network.LogSize() != 25 {
		t.Errorf("bid log size = %d, want 25", f.network.LogSize())
	}
}

func TestStatsEndpoint(t *testing.T) {
	f := newFixture(t)
	rnd := randx.New(12, 12)
	for i := 0; i < 80; i++ {
		resp := f.post(t, "/v1/report", ReportRequest{
			UserID: "stat-user",
			Pos:    geo.Point{X: 0, Y: 0}.Add(rnd.GaussianPolar(12)),
		})
		resp.Body.Close()
	}
	resp := f.post(t, "/v1/rebuild", RebuildRequest{UserID: "stat-user"})
	resp.Body.Close()

	statsResp, err := http.Get(f.server.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Users != 1 {
		t.Errorf("Users = %d", stats.Users)
	}
	if stats.ProtectedTops == 0 {
		t.Error("no protected tops reported")
	}
	if stats.TotalCandidate != stats.ProtectedTops*10 {
		t.Errorf("candidates = %d for %d tops", stats.TotalCandidate, stats.ProtectedTops)
	}
}

func TestFingerprintEndpoint(t *testing.T) {
	f := newFixture(t)
	// Missing user parameter is rejected.
	resp, err := http.Get(f.server.URL + "/v1/fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing user: status = %d", resp.StatusCode)
	}

	fetch := func(user string) string {
		t.Helper()
		resp, err := http.Get(f.server.URL + "/v1/fingerprint?user=" + user)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fingerprint(%s): status = %d", user, resp.StatusCode)
		}
		var fr FingerprintResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatal(err)
		}
		if fr.UserID != user || len(fr.Fingerprint) != 16 {
			t.Fatalf("fingerprint(%s) = %+v", user, fr)
		}
		return fr.Fingerprint
	}

	// Unknown users answer with the shared empty-table fingerprint.
	empty := fetch("nobody")
	if other := fetch("also-nobody"); other != empty {
		t.Errorf("empty-table fingerprints differ: %s vs %s", other, empty)
	}

	rnd := randx.New(5, 5)
	for i := 0; i < 80; i++ {
		resp := f.post(t, "/v1/report", ReportRequest{
			UserID: "fp-user",
			Pos:    geo.Point{X: 0, Y: 0}.Add(rnd.GaussianPolar(12)),
		})
		resp.Body.Close()
	}
	resp2 := f.post(t, "/v1/rebuild", RebuildRequest{UserID: "fp-user"})
	resp2.Body.Close()
	got := fetch("fp-user")
	if got == empty {
		t.Error("populated table still hashes like an empty one")
	}
	want, err := f.engine.TableFingerprint("fp-user")
	if err != nil {
		t.Fatal(err)
	}
	if got != fmt.Sprintf("%016x", want) {
		t.Errorf("endpoint fingerprint %s != engine %016x", got, want)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	f := newFixture(t)
	srv, err := NewServer(f.engine, f.network, f.clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	// The server must answer while running.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestAdsRequestValidation(t *testing.T) {
	f := newFixture(t)
	resp := f.post(t, "/v1/ads", AdsRequest{Pos: geo.Point{}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing user_id: %d", resp.StatusCode)
	}
}

// TestConcurrentMixedTraffic has eight clients hit one single-edge
// server at once with single reports, batches and ad requests, half of
// them in binary frames and half in JSON.
func TestConcurrentMixedTraffic(t *testing.T) {
	f := newFixture(t)
	if err := f.network.Register(adnet.Campaign{
		ID: "c", Location: geo.Point{}, Radius: 50_000, Ad: adnet.Ad{ID: "ad"},
	}); err != nil {
		t.Fatal(err)
	}
	// post sends m in the client's codec and decodes the 200 answer into
	// out, or expects 204 when out is nil.
	post := func(binary bool, path string, m, out wire.Message) {
		payload, contentType, decode := wire.Encode(m), wire.ContentType, wire.Decode
		if !binary {
			var err error
			if payload, err = wire.AppendJSON(nil, m); err != nil {
				t.Error(err)
				return
			}
			contentType, decode = "application/json", wire.DecodeJSON
		}
		resp, err := http.Post(f.server.URL+path, contentType, bytes.NewReader(payload))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		switch {
		case err != nil:
			t.Error(err)
		case out == nil && resp.StatusCode != http.StatusNoContent, out != nil && resp.StatusCode != http.StatusOK:
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		case out != nil:
			if err := decode(body, out); err != nil {
				t.Errorf("%s: decoding: %v", path, err)
			}
		}
	}
	var batchErrs atomic.Int64
	var wg sync.WaitGroup
	for u := 0; u < 8; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			binary := u%2 == 1
			id := fmt.Sprintf("user-%d", u)
			for i := 0; i < 20; i++ {
				pos := geo.Point{X: float64(u), Y: float64(i)}
				if i%4 == 0 {
					batch := &ReportBatchRequest{}
					for j := 0; j < 4; j++ {
						batch.Reports = append(batch.Reports, ReportRequest{UserID: id, Pos: geo.Point{X: pos.X, Y: pos.Y + float64(j)/4}})
					}
					var resp ReportBatchResponse
					post(binary, "/v1/report/batch", batch, &resp)
					batchErrs.Add(int64(len(resp.Errors)))
					if resp.Accepted != 4 {
						t.Errorf("%s batch %d: accepted %d of 4", id, i, resp.Accepted)
					}
				} else {
					post(binary, "/v1/report", &ReportRequest{UserID: id, Pos: pos}, nil)
				}
				post(binary, "/v1/ads", &AdsRequest{UserID: id, Pos: pos}, &AdsResponse{})
			}
		}(u)
	}
	wg.Wait()
	if got := f.network.LogSize(); got != 160 {
		t.Errorf("bid log = %d, want 160", got)
	}
	if got := batchErrs.Load(); got != 0 {
		t.Errorf("batch item errors = %d, want 0", got)
	}
	if got := f.srv.Registry().Gauge("edge_http_in_flight_requests", "").Value(); got != 0 {
		t.Errorf("in-flight after traffic = %d, want 0", got)
	}
	if got := f.srv.Tracer().ActiveSpans(); got != 0 {
		t.Errorf("active spans after traffic = %d, want 0", got)
	}
}

// TestNewHTTPServer is the regression for the missing slowloris
// bounds: every HTTP front built through NewHTTPServer must cap
// header-read time and reclaim idle keep-alive connections. Without
// ReadHeaderTimeout a client can hold a connection open indefinitely by
// dribbling header bytes; without IdleTimeout finished connections pin
// server resources forever.
func TestNewHTTPServer(t *testing.T) {
	srv := NewHTTPServer(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("NewHTTPServer: ReadHeaderTimeout unset — slowloris headers unbounded")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("NewHTTPServer: IdleTimeout unset — idle keep-alives pinned forever")
	}
	if srv.Handler == nil {
		t.Error("NewHTTPServer: handler not wired")
	}
}
