package edge

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestPrivacyEndpoint verifies the /v1/privacy surface against an engine
// running with a nomadic budget: the reported loss grows with nomadic
// requests and the edge starts refusing once the budget is spent.
func TestPrivacyEndpoint(t *testing.T) {
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{
		Mechanism:            mech,
		NomadicMechanism:     nomadic,
		NomadicBudget:        &geoind.Loss{Epsilon: 2, Delta: 1},
		NomadicReportEpsilon: 1,
		Seed:                 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	network, err := adnet.NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine, network, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Missing user param.
	resp, err := http.Get(ts.URL + "/v1/privacy")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing user: %d", resp.StatusCode)
	}

	getLoss := func() PrivacyResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/privacy?user=eva")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("privacy status = %d", resp.StatusCode)
		}
		var pr PrivacyResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	if loss := getLoss(); loss.Epsilon != 0 {
		t.Errorf("fresh user loss = %+v", loss)
	}

	postAds := func() int {
		t.Helper()
		payload, err := json.Marshal(AdsRequest{UserID: "eva", Pos: geo.Point{X: 9e4, Y: 9e4}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/ads", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	// Two nomadic requests fit the eps=2 budget at eps=1 per report.
	for i := 0; i < 2; i++ {
		if code := postAds(); code != http.StatusOK {
			t.Fatalf("request %d status = %d", i+1, code)
		}
	}
	if loss := getLoss(); loss.Epsilon != 2 {
		t.Errorf("loss after 2 requests = %+v, want eps 2", loss)
	}
	// The third must be refused (budget exhausted).
	if code := postAds(); code != http.StatusForbidden {
		t.Errorf("over-budget request status = %d, want 403", code)
	}
}

// TestBudgetExhaustedAnswers403 pins the answer to an ad request whose
// nomadic budget is spent: 403 in the negotiated codec, counted as a
// 4xx, and no Error log line. The refusal is the policy working, not a
// fault an operator should be paged for.
func TestBudgetExhaustedAnswers403(t *testing.T) {
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{
		Mechanism:        mech,
		NomadicMechanism: nomadic,
		NomadicBudget:    &geoind.Loss{Epsilon: 3, Delta: 1},
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	network, err := adnet.NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	srv, err := NewServer(engine, network, nil, slog.New(slog.NewTextHandler(&logs, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postAds := func(i int, contentType string) (int, string) {
		t.Helper()
		m := &AdsRequest{UserID: "nomad", Pos: geo.Point{X: float64(i) * 3000, Y: 0}}
		var payload []byte
		if contentType == wire.ContentType {
			payload = wire.Encode(m)
		} else if payload, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/ads", contentType, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK && contentType == wire.ContentType {
			var env wire.ErrorResponse
			if err := wire.Decode(body, &env); err != nil {
				t.Fatalf("decoding binary error envelope: %v", err)
			}
			return resp.StatusCode, env.Error
		}
		return resp.StatusCode, string(body)
	}

	// Three nomadic releases at ε = 1 spend the ε = 3 budget.
	for i := 0; i < 3; i++ {
		if code, body := postAds(i, "application/json"); code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i+1, code, body)
		}
	}
	for i, ct := range []string{"application/json", wire.ContentType} {
		code, msg := postAds(3+i, ct)
		if code != http.StatusForbidden || !strings.Contains(msg, "budget exhausted") {
			t.Errorf("over-budget %s request: status %d, error %q; want 403 budget exhausted", ct, code, msg)
		}
	}
	reg := srv.Registry()
	for class, want := range map[string]uint64{"2xx": 3, "4xx": 2, "5xx": 0} {
		if got := reg.Counter(metricHTTPRequests, "", telemetry.L("route", "/v1/ads"), telemetry.L("code", class)).Value(); got != want {
			t.Errorf("/v1/ads %s = %d, want %d", class, got, want)
		}
	}
	if strings.Contains(logs.String(), "level=ERROR") {
		t.Errorf("budget refusals logged at Error level:\n%s", logs.String())
	}
}
