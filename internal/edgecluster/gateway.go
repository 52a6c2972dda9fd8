package edgecluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// Gateway is the HTTP front of a multi-edge cluster: the same serving
// routes a single edge exposes, but routed through the cluster's
// health-aware failover logic. It speaks both serving codecs with the
// same Content-Type/Accept negotiation as internal/edge, so a batch
// whose items fan out (or fail over) across several nodes still answers
// in the codec the client asked for, with per-item error indexes
// remapped to the original request order.
type Gateway struct {
	cluster *Cluster
	clock   edge.Clock
	tracer  *tracing.Tracer
	mux     *http.ServeMux

	// wireReqs / wireDecodeErrs mirror the edge server's wire_* families,
	// indexed by edge.Codec; nil until Instrument.
	wireReqs       [2]*telemetry.Counter
	wireDecodeErrs [2]*telemetry.Counter
}

// GatewayOption customises a Gateway.
type GatewayOption func(*Gateway)

// WithGatewayTracer makes the gateway open a root span per request,
// adopting the client's traceparent header, so cluster failover spans
// join the caller's trace exactly as they do on the direct API.
func WithGatewayTracer(t *tracing.Tracer) GatewayOption {
	return func(g *Gateway) { g.tracer = t }
}

// NewGateway wires a cluster into an HTTP service. clock may be nil
// (wall clock) and stamps reports that arrive without a time.
func NewGateway(c *Cluster, clock edge.Clock, opts ...GatewayOption) (*Gateway, error) {
	if c == nil {
		return nil, fmt.Errorf("edgecluster: gateway requires a cluster")
	}
	if clock == nil {
		clock = time.Now
	}
	g := &Gateway{cluster: c, clock: clock}
	for _, opt := range opts {
		opt(g)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("POST /v1/report", g.handleReport)
	mux.HandleFunc("POST /v1/report/batch", g.handleReportBatch)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	g.mux = mux
	return g, nil
}

// Handler returns the HTTP handler for the gateway.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Serve runs the gateway on the listener until ctx is cancelled, then
// shuts down gracefully. It uses the same hardened http.Server as the
// single-edge front (edge.NewHTTPServer): header-read and idle
// timeouts, per-route body limits.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	srv := edge.NewHTTPServer(g.mux)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("edgecluster: gateway shutdown: %w", err)
		}
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("edgecluster: gateway serve: %w", err)
	}
}

// Instrument registers the gateway's wire_requests_total and
// wire_decode_errors_total families with reg and starts recording.
func (g *Gateway) Instrument(reg *telemetry.Registry) {
	for _, c := range []edge.Codec{edge.CodecJSON, edge.CodecBinary} {
		g.wireReqs[c] = reg.Counter("wire_requests_total", "Serving-path requests by negotiated response codec.", telemetry.L("codec", c.String()))
		g.wireDecodeErrs[c] = reg.Counter("wire_decode_errors_total", "Serving-path request bodies that failed to decode, by request codec.", telemetry.L("codec", c.String()))
	}
}

// negotiate resolves both codecs and counts the request.
func (g *Gateway) negotiate(r *http.Request) (reqCodec, respCodec edge.Codec) {
	reqCodec, respCodec = edge.RequestCodec(r), edge.ResponseCodec(r)
	if g.wireReqs[respCodec] != nil {
		g.wireReqs[respCodec].Inc()
	}
	return reqCodec, respCodec
}

func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request, reqCodec, respCodec edge.Codec, m wire.Message, limit int64) bool {
	if err := edge.ReadMessage(w, r, reqCodec, respCodec, m, limit); err != nil {
		if g.wireDecodeErrs[reqCodec] != nil {
			g.wireDecodeErrs[reqCodec].Inc()
		}
		return false
	}
	return true
}

// trace opens the request's root span when the gateway traces, adopting
// a client traceparent if one arrived.
func (g *Gateway) trace(r *http.Request, route string) (*http.Request, *tracing.Span) {
	if g.tracer == nil {
		return r, nil
	}
	var (
		ctx  context.Context
		root *tracing.Span
	)
	if id, parent, ok := tracing.ParseTraceparent(r.Header.Get(tracing.TraceparentHeader)); ok {
		ctx, root = g.tracer.StartTraceRemote(r.Context(), route, id, parent)
	} else {
		ctx, root = g.tracer.StartTrace(r.Context(), route)
	}
	return r.WithContext(ctx), root
}

func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	live := 0
	for _, n := range g.cluster.Nodes() {
		if !n.Down() {
			live++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"live_edges\":%d}\n", live)
}

func (g *Gateway) handleReport(w http.ResponseWriter, r *http.Request) {
	reqCodec, respCodec := g.negotiate(r)
	r, root := g.trace(r, "/v1/report")
	defer root.End()
	var req edge.ReportRequest
	if !g.readBody(w, r, reqCodec, respCodec, &req, edge.MaxRequestBody) {
		return
	}
	if err := edge.CheckReport(req.UserID, req.Pos); err != nil {
		edge.WriteCodecError(w, respCodec, http.StatusBadRequest, err)
		return
	}
	at := req.Time
	if at.IsZero() {
		at = g.clock()
	}
	if _, err := g.cluster.ReportCtx(r.Context(), req.UserID, req.Pos, at); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNoCoverage) || errors.Is(err, ErrNoLiveEdge) {
			status = http.StatusServiceUnavailable
		}
		edge.WriteCodecError(w, respCodec, status, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *Gateway) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	reqCodec, respCodec := g.negotiate(r)
	r, root := g.trace(r, "/v1/report/batch")
	defer root.End()
	var req edge.ReportBatchRequest
	if !g.readBody(w, r, reqCodec, respCodec, &req, edge.MaxBatchBody) {
		return
	}
	if len(req.Reports) == 0 {
		edge.WriteCodecError(w, respCodec, http.StatusBadRequest, errors.New("reports must be non-empty"))
		return
	}
	now := g.clock()
	items := make([]core.BatchReport, 0, len(req.Reports))
	origIndex := make([]int, 0, len(req.Reports)) // cluster item -> request index
	var itemErrs []edge.BatchItemError
	for i, rr := range req.Reports {
		if err := edge.CheckReport(rr.UserID, rr.Pos); err != nil {
			itemErrs = append(itemErrs, edge.BatchItemError{Index: i, Error: err.Error()})
			continue
		}
		at := rr.Time
		if at.IsZero() {
			at = now
		}
		items = append(items, core.BatchReport{UserID: rr.UserID, Pos: rr.Pos, At: at})
		origIndex = append(origIndex, i)
	}
	// The cluster fans the batch out per routed node (failing over past
	// down edges) and already remaps error indexes to its input order;
	// one more remap restores the client's original indexes past any
	// entries rejected above.
	for _, be := range g.cluster.ReportBatchCtx(r.Context(), items) {
		itemErrs = append(itemErrs, edge.BatchItemError{Index: origIndex[be.Index], Error: be.Err.Error()})
	}
	sort.Slice(itemErrs, func(a, b int) bool { return itemErrs[a].Index < itemErrs[b].Index })
	edge.WriteMessage(w, respCodec, http.StatusOK, &edge.ReportBatchResponse{
		Accepted: len(req.Reports) - len(itemErrs),
		Errors:   itemErrs,
	})
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	_, respCodec := g.negotiate(r)
	var resp edge.StatsResponse
	for _, n := range g.cluster.Nodes() {
		st := n.Engine.Stats()
		resp.Users += st.Users
		resp.ProtectedTops += st.ProtectedTops
		resp.TotalCandidate += st.Candidates
	}
	edge.WriteMessage(w, respCodec, http.StatusOK, &resp)
}
