package edge

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// postWire sends m with explicit Content-Type/Accept headers and returns
// the response.
func postWire(t *testing.T, url string, m wire.Message, contentType, accept string) *http.Response {
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

func decodeBatchResp(t *testing.T, resp *http.Response) ReportBatchResponse {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out ReportBatchResponse
	if strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentType) {
		if err := wire.Decode(body, &out); err != nil {
			t.Fatalf("binary decode: %v", err)
		}
	} else if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	return out
}

// TestCodecNegotiationMatrix drives the same batch through all four
// request/response codec combinations against one edge and requires
// identical semantic results: JSON clients, binary clients, and mixed
// clients interoperate on the same routes.
func TestCodecNegotiationMatrix(t *testing.T) {
	f := newFixture(t)
	batch := &ReportBatchRequest{Reports: []ReportRequest{
		{UserID: "alice", Pos: geo.Point{X: 10, Y: 10}},
		{Pos: geo.Point{X: 20, Y: 20}}, // rejected: no user_id
		{UserID: "bob", Pos: geo.Point{X: 30, Y: 30}},
	}}
	cases := []struct {
		name        string
		contentType string
		accept      string
		wantRespCT  string
	}{
		{"json_to_json", "application/json", "", "application/json"},
		{"binary_to_binary", wire.ContentType, "", wire.ContentType},
		{"binary_asks_json", wire.ContentType, "application/json", "application/json"},
		{"json_asks_binary", "application/json", wire.ContentType, wire.ContentType},
		{"curl_style_accept_any", "application/json", "*/*", "application/json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postWire(t, f.server.URL+"/v1/report/batch", batch, tc.contentType, tc.accept)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.wantRespCT) {
				t.Fatalf("response content type = %q, want %q", ct, tc.wantRespCT)
			}
			out := decodeBatchResp(t, resp)
			if out.Accepted != 2 || len(out.Errors) != 1 || out.Errors[0].Index != 1 {
				t.Fatalf("batch response = %+v, want 2 accepted with error at index 1", out)
			}
		})
	}
}

// TestBinaryReportAndAds exercises the full binary serving path: a
// framed report (204), then a framed ads request whose binary response
// carries the obfuscated location.
func TestBinaryReportAndAds(t *testing.T) {
	f := newFixture(t)
	home := geo.Point{X: 1000, Y: 1000}
	for i := 0; i < 3; i++ {
		resp := postWire(t, f.server.URL+"/v1/report", &ReportRequest{UserID: "u1", Pos: home}, wire.ContentType, "")
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("binary report status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postWire(t, f.server.URL+"/v1/ads", &AdsRequest{UserID: "u1", Pos: home, Limit: 3}, wire.ContentType, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary ads status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wire.ContentType) {
		t.Fatalf("ads response content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ads AdsResponse
	if err := wire.Decode(body, &ads); err != nil {
		t.Fatalf("decoding binary ads response: %v", err)
	}
	if ads.Reported == (geo.Point{}) {
		t.Fatal("binary ads response missing the reported location")
	}
	if ads.Ads == nil {
		t.Fatal("binary ads response must carry a non-nil (possibly empty) ads slice")
	}
}

// TestBinaryErrorEnvelope requires error responses to honour the
// negotiated codec: a binary client's validation failure arrives as a
// framed ErrorResponse, a JSON client's as the legacy JSON object.
func TestBinaryErrorEnvelope(t *testing.T) {
	f := newFixture(t)
	resp := postWire(t, f.server.URL+"/v1/report", &ReportRequest{Pos: geo.Point{X: 1}}, wire.ContentType, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wire.ContentType) {
		t.Fatalf("error content type = %q, want binary", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env wire.ErrorResponse
	if err := wire.Decode(body, &env); err != nil {
		t.Fatalf("decoding binary error envelope: %v", err)
	}
	if env.Error != "user_id is required" {
		t.Fatalf("error message = %q", env.Error)
	}
}

// TestBinaryNonFinitePosRejected pins the position check on the serving
// routes. JSON cannot carry NaN or ±Inf, but the binary codec decodes any
// float64: a report, or an ad request, at such a position gets 400 before
// the engine stores a check-in or the ad network logs a bid record, and
// in a batch only that item fails.
func TestBinaryNonFinitePosRejected(t *testing.T) {
	f := newFixture(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, pos := range []geo.Point{{X: bad, Y: 1}, {X: 1, Y: bad}} {
			for _, tc := range []struct {
				path string
				m    wire.Message
			}{
				{"/v1/report", &ReportRequest{UserID: "bad", Pos: pos}},
				{"/v1/ads", &AdsRequest{UserID: "bad", Pos: pos, Limit: 3}},
			} {
				resp := postWire(t, f.server.URL+tc.path, tc.m, wire.ContentType, "application/json")
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "pos must be finite") {
					t.Errorf("%s at %v: status %d, body %q; want 400 pos must be finite", tc.path, pos, resp.StatusCode, body)
				}
			}
		}
		batch := &ReportBatchRequest{Reports: []ReportRequest{
			{UserID: "good", Pos: geo.Point{X: 10, Y: 10}},
			{UserID: "bad", Pos: geo.Point{X: bad, Y: bad}},
			{UserID: "good", Pos: geo.Point{X: 20, Y: 20}},
		}}
		out := decodeBatchResp(t, postWire(t, f.server.URL+"/v1/report/batch", batch, wire.ContentType, ""))
		if out.Accepted != 2 || len(out.Errors) != 1 || out.Errors[0] != (BatchItemError{Index: 1, Error: "pos must be finite"}) {
			t.Errorf("batch with pos %g: %+v, want 2 accepted and item 1 refused", bad, out)
		}
	}
	if users := f.engine.Users(); len(users) != 1 || users[0] != "good" {
		t.Errorf("engine users = %v, want only the batch's good user", users)
	}
	if st := f.engine.Stats(); st != (core.EngineStats{Users: 1}) {
		t.Errorf("engine stats = %+v, want one user and no table", st)
	}
	if n := f.network.TotalLogged(); n != 0 {
		t.Errorf("ad network logged %d bid records, want 0", n)
	}
}

// TestBinaryStats checks GET negotiation: Accept alone flips /v1/stats
// to binary frames.
func TestBinaryStats(t *testing.T) {
	f := newFixture(t)
	resp := postWire(t, f.server.URL+"/v1/report", &ReportRequest{UserID: "s", Pos: geo.Point{X: 5, Y: 5}}, wire.ContentType, "")
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodGet, f.server.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	body, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := wire.Decode(body, &stats); err != nil {
		t.Fatalf("decoding binary stats: %v", err)
	}
	if stats.Users != 1 {
		t.Fatalf("stats users = %d, want 1", stats.Users)
	}
}

// TestWireMetricsCount checks the wire_requests_total and decode-error
// counters follow the negotiated codecs.
func TestWireMetricsCount(t *testing.T) {
	f := newMetricsFixture(t)
	reqs := func(codec Codec) uint64 {
		return f.srv.Registry().Counter("wire_requests_total", "", telemetry.L("codec", codec.String())).Value()
	}
	decErrs := func(codec Codec) uint64 {
		return f.srv.Registry().Counter("wire_decode_errors_total", "", telemetry.L("codec", codec.String())).Value()
	}

	resp := postWire(t, f.ts.URL+"/v1/report", &ReportRequest{UserID: "m", Pos: geo.Point{X: 1}}, wire.ContentType, "")
	resp.Body.Close()
	resp = f.post(t, "/v1/report", ReportRequest{UserID: "m", Pos: geo.Point{X: 1}})
	resp.Body.Close()
	if got := reqs(CodecBinary); got != 1 {
		t.Fatalf("binary requests = %d, want 1", got)
	}
	if got := reqs(CodecJSON); got != 1 {
		t.Fatalf("json requests = %d, want 1", got)
	}

	// A garbage binary frame counts one binary decode error.
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/report", bytes.NewReader([]byte("not a frame")))
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
	if got := decErrs(CodecBinary); got != 1 {
		t.Fatalf("binary decode errors = %d, want 1", got)
	}
	if got := decErrs(CodecJSON); got != 0 {
		t.Fatalf("json decode errors = %d, want 0", got)
	}
}

// raceEnabled is set under the race detector, whose instrumentation
// allocates; allocation bounds are not checked there.
var raceEnabled bool

// TestHostileBatchCountAllocation: a binary batch body just under
// MaxBatchBody whose report count claims one report per remaining byte
// answers 400 as a binary decode error, and serving it allocates at
// most 5× the body. With only a one-byte-per-report bound on the count,
// the decoder sized a 56-byte ReportRequest per claimed report first.
func TestHostileBatchCountAllocation(t *testing.T) {
	f := newMetricsFixture(t)
	typeByte := wire.Encode(&ReportBatchRequest{})[binfmt.HeaderSize+1]
	claim := MaxBatchBody - binfmt.HeaderSize - 2 - 4 - 1 // version, type, a 4-byte count
	payload := binfmt.AppendUvarint([]byte{wire.Version, typeByte}, uint64(claim)+1)
	payload = append(payload, make([]byte, claim)...)
	body := binfmt.AppendFrame(nil, payload)
	if len(body) >= MaxBatchBody {
		t.Fatalf("body of %d bytes, want just under %d", len(body), MaxBatchBody)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/report/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.srv.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if n := after.TotalAlloc - before.TotalAlloc; !raceEnabled && n > 5*uint64(len(body)) {
		t.Errorf("serving a %d-byte body allocated %d bytes (%.1fx)", len(body), n, float64(n)/float64(len(body)))
	}
	if got := f.srv.Registry().Counter("wire_decode_errors_total", "", telemetry.L("codec", "binary")).Value(); got != 1 {
		t.Errorf("wire_decode_errors_total{codec=binary} = %d, want 1", got)
	}
}

// TestJSONBodyRejections covers the JSON bodies the edge used to store
// something from: trailing data after the value, where json.Decoder
// read the first check-in and silently dropped the second, and a report
// or ad request without a whole position, which was stored at the
// projection origin (a batch item too). Each is now a 400 counted as a
// JSON decode error, and none reaches the engine. The control-plane
// decoder behind /v1/rebuild rejects trailing data as well.
func TestJSONBodyRejections(t *testing.T) {
	f := newMetricsFixture(t)
	cases := []struct{ path, body string }{
		{"/v1/report", `{"user_id":"b","pos":{"x":1,"y":2}}{"user_id":"c","pos":{"x":3,"y":4}}`},
		{"/v1/report", `{"user_id":"b","pos":{"x":1,"y":2}} garbage`},
		{"/v1/report", `{"user_id":"d"}`},
		{"/v1/report", `{"user_id":"f","pos":null}`},
		{"/v1/report", `{"user_id":"g","pos":{"x":1}}`},
		{"/v1/ads", `{"user_id":"d","limit":3}`},
		{"/v1/report/batch", `{"reports":[{"user_id":"a","pos":{"x":1,"y":2}},{"user_id":"e"}]}`},
		{"/v1/rebuild", `{"user_id":"b"} {"user_id":"c"}`},
	}
	for _, c := range cases {
		resp, err := http.Post(f.ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var env wire.ErrorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &env) != nil ||
			!strings.HasPrefix(env.Error, "decoding request: ") {
			t.Errorf("POST %s %s: status %d, body %q; want a 400 decoding error", c.path, c.body, resp.StatusCode, body)
		}
	}
	if users := f.engine.Users(); len(users) != 0 {
		t.Errorf("engine users = %v, want none", users)
	}
	decErrs := f.srv.Registry().Counter("wire_decode_errors_total", "", telemetry.L("codec", "json")).Value()
	if want := uint64(len(cases) - 1); decErrs != want {
		t.Errorf("wire_decode_errors_total{codec=json} = %d, want %d (every serving-path body)", decErrs, want)
	}
}
