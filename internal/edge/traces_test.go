package edge

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/geo"
	"repro/internal/tracing"
)

// tracesDoc mirrors the /debug/traces response shape.
type tracesDoc struct {
	ActiveSpans int64                 `json:"active_spans"`
	Traces      []tracing.TraceRecord `json:"traces"`
}

// getTraces fetches the whole trace ring: the default answer holds only
// the 32 slowest traces, and under load which ones those are varies.
func getTraces(t *testing.T, url string) tracesDoc {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces?n=" + strconv.Itoa(tracing.DefaultRingSize))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", resp.StatusCode)
	}
	var doc tracesDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestDebugTracesEndpoint drives the golden traffic and checks the ring
// endpoint: every request left a finished trace with per-stage spans,
// and no span is still active afterwards.
func TestDebugTracesEndpoint(t *testing.T) {
	f := newMetricsFixture(t)
	driveGoldenTraffic(t, f)

	doc := getTraces(t, f.ts.URL)
	if doc.ActiveSpans != 0 {
		t.Errorf("active_spans = %d, want 0", doc.ActiveSpans)
	}
	if len(doc.Traces) == 0 {
		t.Fatal("no traces in the ring after golden traffic")
	}
	stages := map[string]bool{}
	names := map[string]bool{}
	for _, tr := range doc.Traces {
		if tr.TraceID == "" || len(tr.TraceID) != 32 {
			t.Errorf("trace %q has malformed ID %q", tr.Name, tr.TraceID)
		}
		names[tr.Name] = true
		if len(tr.Spans) == 0 {
			t.Errorf("trace %s has no spans", tr.TraceID)
		}
		for _, sp := range tr.Spans {
			stages[sp.Stage] = true
		}
	}
	for _, want := range []string{"/v1/report", "/v1/ads", "/v1/rebuild"} {
		if !names[want] {
			t.Errorf("no trace named %s in the ring (got %v)", want, names)
		}
	}
	// The golden traffic exercises the handler, engine apply, WAL append,
	// and provider stages (no cluster, so no failover).
	for _, want := range []string{"handler", "apply", "wal", "provider"} {
		if !stages[want] {
			t.Errorf("no %s span in any ring trace (got %v)", want, stages)
		}
	}

	// ?n=1 returns only the slowest trace.
	resp, err := http.Get(f.ts.URL + "/debug/traces?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var one tracesDoc
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if len(one.Traces) != 1 {
		t.Errorf("?n=1 returned %d traces", len(one.Traces))
	}
}

// TestTraceparentAdoption checks the middleware joins the caller's
// trace: a request carrying a traceparent header finishes a trace under
// the REMOTE trace ID, which then shows up in /debug/traces.
func TestTraceparentAdoption(t *testing.T) {
	f := newMetricsFixture(t)

	caller := tracing.New(99)
	ctx, root := caller.StartTrace(t.Context(), "caller")
	wantID, ok := tracing.ContextTraceID(ctx)
	if !ok {
		t.Fatal("caller trace has no ID")
	}
	tp, _ := tracing.ContextTraceparent(ctx)

	payload, err := json.Marshal(ReportRequest{UserID: "remote", Pos: geo.Point{X: 10, Y: 10}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/report", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tracing.TraceparentHeader, tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	root.End()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("report status = %d", resp.StatusCode)
	}

	doc := getTraces(t, f.ts.URL)
	found := false
	for _, tr := range doc.Traces {
		if tr.TraceID == wantID {
			found = true
		}
	}
	if !found {
		t.Errorf("edge did not adopt the caller's trace ID %s; ring has %d traces", wantID, len(doc.Traces))
	}
}

// TestWithTracerNilDisables checks the opt-out: no tracer means no
// /debug/traces route and an untraced (but still served) request path.
func TestWithTracerNilDisables(t *testing.T) {
	f := newMetricsFixtureOpts(t, WithTracer(nil))
	resp, err := http.Get(f.ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/traces with tracing disabled: status %d, want 404", resp.StatusCode)
	}
	r := f.post(t, "/v1/report", ReportRequest{UserID: "u", Pos: geo.Point{X: 1, Y: 1}})
	r.Body.Close()
	if r.StatusCode != http.StatusNoContent {
		t.Errorf("report with tracing disabled: status %d", r.StatusCode)
	}
}
