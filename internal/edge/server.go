// Package edge implements the edge-device service of Edge-PrivLocAd
// (Section V-A): the one HTTP front that trusted edge devices expose to
// nearby mobile users, whether one edge serves them or a cluster of edges
// does (Section V-B). The front collects location reports, drives the
// privacy engine (profiles, permanent obfuscation table, output
// selection), forwards ad requests to the untrusted LBA provider using
// only obfuscated locations, and filters the returned ads down to the
// user's true area of interest before delivery.
package edge

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// AdProvider is the untrusted LBA service the edge forwards obfuscated
// requests to. *adnet.Network implements it.
type AdProvider interface {
	RequestAds(userID string, loc geo.Point, at time.Time, limit int) []adnet.Ad
}

// ContextAdProvider is the context-aware variant: providers that can
// abandon work early (remote exchanges, networked ad services) implement
// it and are handed the request's deadline-bounded context. Providers
// without it still cannot hold /v1/ads past the timeout — the edge
// abandons the call and serves a degraded empty-ads response.
type ContextAdProvider interface {
	RequestAdsContext(ctx context.Context, userID string, loc geo.Point, at time.Time, limit int) []adnet.Ad
}

var _ AdProvider = (*adnet.Network)(nil)

// Clock abstracts time for deterministic tests.
type Clock func() time.Time

// Backend is what a Server serves: one edge's engine (*core.Engine) or a
// cluster of edges behind its routing (*edgecluster.Cluster). It holds
// exactly the calls the handlers make, and every route is served for
// any backend. Its errors map to one status on every route:
// core.ErrUnknownUser 404, core.ErrNoProfile 409, core.ErrBudgetExhausted
// 403, ErrUnavailable 503, anything else 500.
type Backend interface {
	ReportCtx(ctx context.Context, userID string, pos geo.Point, at time.Time) error
	ReportBatchCtx(ctx context.Context, items []core.BatchReport) []core.BatchError
	RequestCtx(ctx context.Context, userID string, pos geo.Point) (geo.Point, bool, error)
	FilterAdsAppend(dst []int, truePos geo.Point, adLocations []geo.Point) []int
	RebuildProfileCtx(ctx context.Context, userID string, now time.Time) error
	TopLocations(userID string) (profile.Profile, error)
	Stats() core.EngineStats
	TableFingerprint(userID string) (uint64, error)
	NomadicLoss(userID string) (geoind.Loss, error)
	// Instrument records the backend's own metric families into reg.
	Instrument(reg *telemetry.Registry)
	// Config's Seed seeds the default request tracer.
	Config() core.Config
}

var _ Backend = (*core.Engine)(nil)

// ErrUnavailable is what a backend's error wraps when no edge can take
// the request: no edge covers the position, or every edge that does is
// down. The server answers it with 503.
var ErrUnavailable = errors.New("edge: no edge available")

// Server is the HTTP service. Every route is wrapped in a telemetry
// middleware (per-route request counters by status class, a latency
// histogram, an in-flight gauge), and the server's registry — shared
// with the backend and the tracer, see Instrument — is exposed at GET
// /metrics in Prometheus text format.
type Server struct {
	backend  Backend
	provider AdProvider
	clock    Clock
	logger   *slog.Logger
	tracer   *tracing.Tracer
	mux      *http.ServeMux
	met      atomic.Pointer[serverMetrics]

	// providerTimeout bounds each AdProvider call; 0 disables the bound.
	providerTimeout time.Duration

	// tracerSet marks an explicit WithTracer (including nil, which
	// disables tracing); without it NewServer builds a default tracer
	// seeded from the backend.
	tracerSet bool
}

// serverMetrics is the server's own telemetry resolved against one
// registry; Instrument swaps it whole.
type serverMetrics struct {
	reg              *telemetry.Registry
	inFlight         *telemetry.Gauge
	providerTimeouts *telemetry.Counter
	// wireReqs / wireDecodeErrs count serving-path requests and body
	// decode failures per codec, indexed by Codec.
	wireReqs       [2]*telemetry.Counter
	wireDecodeErrs [2]*telemetry.Counter
	// routes holds each instrumented route's metrics, indexed like the
	// routes table.
	routes []*routeMetrics
}

// routes is the table of instrumented routes.
var routes = []struct {
	method, path string
	handle       func(*Server, http.ResponseWriter, *http.Request)
}{
	{"GET", "/healthz", (*Server).handleHealth},
	{"POST", "/v1/report", (*Server).handleReport},
	{"POST", "/v1/report/batch", (*Server).handleReportBatch},
	{"POST", "/v1/ads", (*Server).handleAds},
	{"POST", "/v1/rebuild", (*Server).handleRebuild},
	{"GET", "/v1/profile", (*Server).handleProfile},
	{"GET", "/v1/privacy", (*Server).handlePrivacy},
	{"GET", "/v1/stats", (*Server).handleStats},
	{"GET", "/v1/fingerprint", (*Server).handleFingerprint},
}

// ServerOption customises a Server.
type ServerOption func(*Server)

// DefaultProviderTimeout bounds AdProvider calls unless overridden: the
// provider is untrusted remote infrastructure, and a hung call must not
// hold /v1/ads (and its client) indefinitely.
const DefaultProviderTimeout = 2 * time.Second

// WithProviderTimeout overrides the AdProvider call bound; d ≤ 0
// disables it (the provider may then block /v1/ads indefinitely).
func WithProviderTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.providerTimeout = d }
}

// WithTracer replaces the server's default request tracer — e.g. one
// built with a slow-trace threshold and logger. nil disables tracing
// (and the /debug/traces route) entirely.
func WithTracer(t *tracing.Tracer) ServerOption {
	return func(s *Server) { s.tracer, s.tracerSet = t, true }
}

// NewServer wires a backend and an ad provider into an HTTP service.
// clock may be nil (wall clock); logger may be nil (logging disabled).
// The server instruments itself, its tracer and the backend against a
// fresh telemetry registry; callers that add their own metrics (e.g. the
// RTB exchange) register them on Registry, or move everything onto a
// registry of their own with Instrument. Every instrumented route runs
// under a request trace (adopting the client's traceparent header when
// present), and the slowest recent traces are served at GET
// /debug/traces.
func NewServer(backend Backend, provider AdProvider, clock Clock, logger *slog.Logger, opts ...ServerOption) (*Server, error) {
	if backend == nil {
		return nil, fmt.Errorf("edge: server requires a backend")
	}
	if provider == nil {
		return nil, fmt.Errorf("edge: server requires an ad provider")
	}
	if clock == nil {
		clock = time.Now
	}
	s := &Server{
		backend: backend, provider: provider, clock: clock, logger: logger,
		providerTimeout: DefaultProviderTimeout,
	}
	for _, opt := range opts {
		opt(s)
	}
	if !s.tracerSet {
		// The default tracer shares the backend's seed so trace IDs are as
		// reproducible as the rest of the serving state.
		s.tracer = tracing.New(backend.Config().Seed)
	}
	s.Instrument(telemetry.NewRegistry())
	mux := http.NewServeMux()
	for i, r := range routes {
		mux.Handle(r.method+" "+r.path, s.instrument(i, r.handle))
	}
	// The scrape endpoint itself is left uninstrumented so monitoring
	// traffic does not pollute the serving-path metrics; likewise the
	// trace-ring debug endpoint, which must not trace itself.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.Registry().Handler().ServeHTTP(w, r)
	})
	if s.tracer != nil {
		mux.Handle("GET /debug/traces", s.tracer.TracesHandler())
	}
	s.mux = mux
	return s, nil
}

// Instrument points the server's telemetry at reg, and GET /metrics then
// serves reg. It moves every family the server exposes: its own
// (edge_http_*, edge_request_latency_seconds, edge_provider_timeouts_total,
// wire_*), the tracer's and the backend's, which record into the
// registry they were instrumented with last, and the runtime memory
// gauges.
func (s *Server) Instrument(reg *telemetry.Registry) {
	m := &serverMetrics{
		reg:              reg,
		inFlight:         reg.Gauge(metricHTTPInFlight, "HTTP requests currently being served."),
		providerTimeouts: reg.Counter("edge_provider_timeouts_total", "AdProvider calls abandoned at the timeout and served as degraded empty-ads responses."),
		routes:           make([]*routeMetrics, len(routes)),
	}
	// Both codec series are pre-created so the exposition always carries
	// them, even before the first binary (or JSON) client connects.
	for _, c := range []Codec{CodecJSON, CodecBinary} {
		m.wireReqs[c] = reg.Counter("wire_requests_total", "Serving-path requests by negotiated response codec.", telemetry.L("codec", c.String()))
		m.wireDecodeErrs[c] = reg.Counter("wire_decode_errors_total", "Serving-path request bodies that failed to decode, by request codec.", telemetry.L("codec", c.String()))
	}
	for i, r := range routes {
		m.routes[i] = newRouteMetrics(reg, r.path)
	}
	if s.tracer != nil {
		s.tracer.Instrument(reg)
	}
	s.backend.Instrument(reg)
	telemetry.RegisterRuntimeMem(reg)
	s.met.Store(m)
}

// Tracer returns the server's request tracer (nil when tracing was
// disabled with WithTracer(nil)).
func (s *Server) Tracer() *tracing.Tracer { return s.tracer }

// Handler returns the HTTP handler for the service.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's telemetry registry, for wiring further
// subsystems (RTB exchange, command-level gauges) into GET /metrics.
func (s *Server) Registry() *telemetry.Registry { return s.met.Load().reg }

// NewHTTPServer builds the http.Server the service runs on:
// ReadHeaderTimeout caps how long a connection may dribble its request
// headers (the classic slowloris hold) and IdleTimeout reclaims
// keep-alive connections that stop sending requests. Body sizes are
// bounded per route (MaxRequestBody / MaxBatchBody), not here, because
// the batch route legitimately accepts bigger payloads.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve runs the service on the listener until ctx is cancelled, then
// shuts down gracefully.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := NewHTTPServer(s.mux)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("edge: shutdown: %w", err)
		}
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("edge: serve: %w", err)
	}
}

// log emits one structured line, attaching the request's trace ID when
// ctx carries one so log lines join their trace in /debug/traces.
func (s *Server) log(ctx context.Context, level slog.Level, msg string, args ...any) {
	if s.logger == nil {
		return
	}
	if id, ok := tracing.ContextTraceID(ctx); ok {
		args = append(args, slog.String("trace_id", id))
	}
	s.logger.Log(ctx, level, msg, args...)
}

// The serving-path message types live in internal/wire, which defines
// both their JSON tags and their binary encodings; the aliases keep this
// package's exported API unchanged. Control-plane types (rebuild,
// profile, privacy, fingerprint) stay JSON-only and are defined below.
type (
	// ReportRequest is the body of POST /v1/report.
	ReportRequest = wire.ReportRequest
	// ReportBatchRequest is the body of POST /v1/report/batch.
	ReportBatchRequest = wire.ReportBatchRequest
	// BatchItemError is one rejected entry of a batch response.
	BatchItemError = wire.BatchItemError
	// ReportBatchResponse is the body returned by POST /v1/report/batch.
	ReportBatchResponse = wire.ReportBatchResponse
	// AdsRequest is the body of POST /v1/ads.
	AdsRequest = wire.AdsRequest
	// AdsResponse is the body returned by POST /v1/ads.
	AdsResponse = wire.AdsResponse
	// StatsResponse is the body of GET /v1/stats.
	StatsResponse = wire.StatsResponse
)

// RebuildRequest is the body of POST /v1/rebuild.
type RebuildRequest struct {
	UserID string    `json:"user_id"`
	Now    time.Time `json:"now,omitempty"`
}

// ProfileResponse is the body of GET /v1/profile.
type ProfileResponse struct {
	UserID string         `json:"user_id"`
	Tops   []ProfileEntry `json:"tops"`
}

// ProfileEntry is one top location of a profile response.
type ProfileEntry struct {
	Loc  geo.Point `json:"loc"`
	Freq int       `json:"freq"`
}

// PrivacyResponse is the body of GET /v1/privacy: the user's cumulative
// nomadic privacy loss under the engine's best composition bound. A
// cluster answers the sum of its edges' losses, which is basic
// composition across edges and so an upper bound. Both fields are zero
// when the engines run without a nomadic budget.
type PrivacyResponse struct {
	UserID  string  `json:"user_id"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// jsonBuf pairs a reusable buffer with a JSON encoder bound to it, so
// the control-plane routes neither allocate a fresh encoder per response
// nor grow a fresh buffer through the payload size every request. The
// serving-path messages skip encoding/json: WriteMessage encodes them
// with wire.AppendJSON.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// maxPooledBuf caps the buffers the pool retains: a rare huge response
// (a giant batch's error list) should not pin megabytes forever.
const maxPooledBuf = 1 << 18

func writeJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	// Encoding into the buffer first means an encoding failure can still
	// become a clean 500 instead of a half-written 200; the payloads here
	// are plain structs that cannot realistically fail.
	if err := jb.enc.Encode(v); err != nil {
		jsonBufPool.Put(jb)
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(jb.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(jb.buf.Bytes())
	if jb.buf.Cap() <= maxPooledBuf {
		jsonBufPool.Put(jb)
	}
}

// writeError answers a control-plane route's error in the serving
// path's JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeCodecError(w, CodecJSON, status, err)
}

// errorStatus maps a backend error to the status every route answers it
// with, for either backend.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrUnknownUser):
		return http.StatusNotFound
	case errors.Is(err, core.ErrNoProfile):
		return http.StatusConflict
	case errors.Is(err, core.ErrBudgetExhausted):
		// The refusal is the privacy policy working, and the lifetime
		// budget never refills: 403, not 429's "retry later".
		return http.StatusForbidden
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// fail answers a backend error in codec with its errorStatus. Only a 500
// is logged at Error level: the other statuses are the policy working or
// a position no live edge covers, which a client can cause at will.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, codec Codec, msg, userID string, err error) {
	status := errorStatus(err)
	if status == http.StatusInternalServerError {
		s.log(r.Context(), slog.LevelError, msg, "user", userID, "err", err)
	}
	writeCodecError(w, codec, status, err)
}

// bodyBufPool recycles request-body read buffers for decodeBody.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// MaxRequestBody bounds single-message request bodies.
const MaxRequestBody = 1 << 20

// readBodyBuf reads the request body (bounded at limit bytes) into a
// pooled buffer; release returns the buffer to the pool. Pooling the
// read buffer keeps the per-request allocation profile flat even for
// large batch payloads, which would otherwise regrow a decoder's
// internal buffer on every request.
func readBodyBuf(w http.ResponseWriter, r *http.Request, limit int64) (buf *bytes.Buffer, release func(), err error) {
	buf = bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	release = func() {
		if buf.Cap() <= maxPooledBuf {
			bodyBufPool.Put(buf)
		}
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		release()
		return nil, nil, fmt.Errorf("reading request: %w", err)
	}
	return buf, release, nil
}

// decodeJSONStrict decodes data into v, rejecting unknown fields and,
// as wire.DecodeJSON does on the serving path, anything but whitespace
// after the value: json.Decoder stops after the first one.
func decodeJSONStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("decoding request: data after the JSON value at offset %d", len(data)-len(rest))
	}
	return nil
}

// decodeBody is the JSON-only decode path used by the control-plane
// routes (rebuild and friends), which are not wire-negotiated.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf, release, err := readBodyBuf(w, r, MaxRequestBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	defer release()
	if err := decodeJSONStrict(buf.Bytes(), v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// checkReport validates what every report and ad request carries: a
// user ID and a position with finite coordinates. JSON cannot carry NaN
// or ±Inf, but the binary codec decodes any float64. Its error is a 400
// (a per-item error in batches).
func checkReport(userID string, pos geo.Point) error {
	if userID == "" {
		return errUserIDRequired
	}
	if !pos.Finite() {
		return errPosNotFinite
	}
	return nil
}

var (
	errUserIDRequired = errors.New("user_id is required")
	errPosNotFinite   = errors.New("pos must be finite")
)

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	reqCodec, respCodec := s.negotiate(r)
	var req ReportRequest
	if !s.readBody(w, r, reqCodec, respCodec, &req, MaxRequestBody) {
		return
	}
	if err := checkReport(req.UserID, req.Pos); err != nil {
		writeCodecError(w, respCodec, http.StatusBadRequest, err)
		return
	}
	at := req.Time
	if at.IsZero() {
		at = s.clock()
	}
	if err := s.backend.ReportCtx(r.Context(), req.UserID, req.Pos, at); err != nil {
		s.fail(w, r, respCodec, "report failed", req.UserID, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// MaxBatchBody bounds POST /v1/report/batch bodies; batches are bigger
// than single reports by design, so they get a wider limit.
const MaxBatchBody = 8 << 20

func (s *Server) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	reqCodec, respCodec := s.negotiate(r)
	var req ReportBatchRequest
	if !s.readBody(w, r, reqCodec, respCodec, &req, MaxBatchBody) {
		return
	}
	if len(req.Reports) == 0 {
		writeCodecError(w, respCodec, http.StatusBadRequest, errors.New("reports must be non-empty"))
		return
	}

	now := s.clock()
	// The items go to the backend on pooled scratch: the engine logs
	// them before it returns and a cluster copies them into its per-edge
	// groups, so nothing keeps them past the call.
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	items := sc.items[:0]
	origIndex := sc.origIndex[:0] // backend item -> request index
	var itemErrs []BatchItemError
	for i, rr := range req.Reports {
		if err := checkReport(rr.UserID, rr.Pos); err != nil {
			itemErrs = append(itemErrs, BatchItemError{Index: i, Error: err.Error()})
			continue
		}
		at := rr.Time
		if at.IsZero() {
			at = now
		}
		items = append(items, core.BatchReport{UserID: rr.UserID, Pos: rr.Pos, At: at})
		origIndex = append(origIndex, i)
	}
	sc.items, sc.origIndex = items, origIndex
	// A cluster fans the batch out per routed edge and remaps error
	// indexes to its input order; origIndex restores the client's order
	// past the entries rejected above.
	for _, be := range s.backend.ReportBatchCtx(r.Context(), items) {
		if errorStatus(be.Err) == http.StatusInternalServerError {
			s.log(r.Context(), slog.LevelError, "batch item failed", "user", items[be.Index].UserID, "err", be.Err)
		}
		itemErrs = append(itemErrs, BatchItemError{Index: origIndex[be.Index], Error: be.Err.Error()})
	}
	sort.Slice(itemErrs, func(a, b int) bool { return itemErrs[a].Index < itemErrs[b].Index })
	WriteMessage(w, respCodec, http.StatusOK, &ReportBatchResponse{
		Accepted: len(req.Reports) - len(itemErrs),
		Errors:   itemErrs,
	})
}

func (s *Server) handleAds(w http.ResponseWriter, r *http.Request) {
	reqCodec, respCodec := s.negotiate(r)
	var req AdsRequest
	if !s.readBody(w, r, reqCodec, respCodec, &req, MaxRequestBody) {
		return
	}
	if err := checkReport(req.UserID, req.Pos); err != nil {
		writeCodecError(w, respCodec, http.StatusBadRequest, err)
		return
	}

	// Implicit location management: an ad request reveals the user's
	// position to the trusted edge, which records it as a check-in.
	at := s.clock()
	if err := s.backend.ReportCtx(r.Context(), req.UserID, req.Pos, at); err != nil {
		s.fail(w, r, respCodec, "ads implicit report failed", req.UserID, err)
		return
	}

	obfuscated, fromTable, err := s.backend.RequestCtx(r.Context(), req.UserID, req.Pos)
	if err != nil {
		s.fail(w, r, respCodec, "ads output selection failed", req.UserID, err)
		return
	}

	// Only the obfuscated location crosses the trust boundary.
	ads, degraded := s.fetchAds(r.Context(), req.UserID, obfuscated, at, req.Limit)
	if degraded {
		s.log(r.Context(), slog.LevelWarn, "provider timeout, serving degraded response",
			"user", req.UserID, "timeout", s.providerTimeout)
		WriteMessage(w, respCodec, http.StatusOK, &AdsResponse{
			Ads:       []adnet.Ad{},
			Reported:  obfuscated,
			FromTable: fromTable,
			Degraded:  true,
		})
		return
	}

	// The AOI filter runs on pooled scratch slices: WriteMessage
	// serialises synchronously before the scratch is returned, so
	// nothing escapes.
	sc := adsScratchPool.Get().(*adsScratch)
	sc.locs = sc.locs[:0]
	sc.keep = sc.keep[:0]
	sc.filtered = sc.filtered[:0]
	for _, ad := range ads {
		sc.locs = append(sc.locs, ad.Location)
	}
	sc.keep = s.backend.FilterAdsAppend(sc.keep, req.Pos, sc.locs)
	for _, i := range sc.keep {
		sc.filtered = append(sc.filtered, ads[i])
	}

	WriteMessage(w, respCodec, http.StatusOK, &AdsResponse{
		Ads:       sc.filtered,
		Reported:  obfuscated,
		FromTable: fromTable,
		Fetched:   len(ads),
	})
	adsScratchPool.Put(sc)
}

// batchScratch holds the per-request working slices of
// handleReportBatch.
type batchScratch struct {
	items     []core.BatchReport
	origIndex []int
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release returns the scratch to its pool, dropping the items' user IDs
// so the pool does not keep them alive.
func (sc *batchScratch) release() {
	clear(sc.items)
	batchScratchPool.Put(sc)
}

// adsScratch holds the per-request working slices of handleAds.
type adsScratch struct {
	locs     []geo.Point
	keep     []int
	filtered []adnet.Ad
}

// The filtered slice starts non-nil so an all-filtered response encodes
// as [] (matching the pre-pooling behaviour), never null.
var adsScratchPool = sync.Pool{New: func() any { return &adsScratch{filtered: []adnet.Ad{}} }}

// fetchAds calls the provider under the configured timeout. The provider
// runs on its own goroutine so even a context-oblivious implementation
// cannot hold the handler past the bound: the handler abandons the call
// (the goroutine drains into a buffered channel when the provider
// eventually returns) and reports a degraded response. Context-aware
// providers additionally receive the deadline so they can stop early.
func (s *Server) fetchAds(ctx context.Context, userID string, loc geo.Point, at time.Time, limit int) (ads []adnet.Ad, degraded bool) {
	// The provider span covers the whole call, including a timed-out
	// wait: a degraded response records providerTimeout as provider cost.
	_, sp := tracing.StartSpan(ctx, tracing.StageProvider)
	defer sp.End()
	if s.providerTimeout <= 0 {
		if cp, ok := s.provider.(ContextAdProvider); ok {
			return cp.RequestAdsContext(ctx, userID, loc, at, limit), false
		}
		return s.provider.RequestAds(userID, loc, at, limit), false
	}
	ctx, cancel := context.WithTimeout(ctx, s.providerTimeout)
	defer cancel()
	ch := make(chan []adnet.Ad, 1)
	go func() {
		if cp, ok := s.provider.(ContextAdProvider); ok {
			ch <- cp.RequestAdsContext(ctx, userID, loc, at, limit)
			return
		}
		ch <- s.provider.RequestAds(userID, loc, at, limit)
	}()
	select {
	case ads = <-ch:
		return ads, false
	case <-ctx.Done():
		s.met.Load().providerTimeouts.Inc()
		return nil, true
	}
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	var req RebuildRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.UserID == "" {
		writeError(w, http.StatusBadRequest, errors.New("user_id is required"))
		return
	}
	now := req.Now
	if now.IsZero() {
		now = s.clock()
	}
	if err := s.backend.RebuildProfileCtx(r.Context(), req.UserID, now); err != nil {
		s.fail(w, r, CodecJSON, "rebuild failed", req.UserID, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	userID := r.URL.Query().Get("user")
	if userID == "" {
		writeError(w, http.StatusBadRequest, errors.New("user query parameter is required"))
		return
	}
	tops, err := s.backend.TopLocations(userID)
	if err != nil {
		s.fail(w, r, CodecJSON, "profile failed", userID, err)
		return
	}
	resp := ProfileResponse{UserID: userID, Tops: make([]ProfileEntry, len(tops))}
	for i, lf := range tops {
		resp.Tops[i] = ProfileEntry{Loc: lf.Loc, Freq: lf.Freq}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// A GET carries no body, so negotiation reduces to the Accept header
	// (absent Accept means JSON — GETs have no request codec to mirror).
	_, respCodec := s.negotiate(r)
	// An engine serves its always-on atomic aggregates: O(1), no engine
	// locks, no walk over users and tables.
	st := s.backend.Stats()
	WriteMessage(w, respCodec, http.StatusOK, &StatsResponse{
		Users:          st.Users,
		ProtectedTops:  st.ProtectedTops,
		TotalCandidate: st.Candidates,
	})
}

// FingerprintResponse is the body of GET /v1/fingerprint.
type FingerprintResponse struct {
	UserID string `json:"user_id"`
	// Fingerprint is the 64-bit obfuscation-table digest in zero-padded
	// hex. Comparing it across a restart (or across replicas) proves the
	// permanent table survived byte-identically.
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	userID := r.URL.Query().Get("user")
	if userID == "" {
		writeError(w, http.StatusBadRequest, errors.New("user query parameter is required"))
		return
	}
	// Unknown users deliberately answer with the empty-table
	// fingerprint rather than 404: a freshly recovered node that never
	// replayed the user must still agree with one that did but holds no
	// table entries for them.
	fp, err := s.backend.TableFingerprint(userID)
	if err != nil {
		s.fail(w, r, CodecJSON, "fingerprint failed", userID, err)
		return
	}
	writeJSON(w, http.StatusOK, FingerprintResponse{
		UserID:      userID,
		Fingerprint: fmt.Sprintf("%016x", fp),
	})
}

func (s *Server) handlePrivacy(w http.ResponseWriter, r *http.Request) {
	userID := r.URL.Query().Get("user")
	if userID == "" {
		writeError(w, http.StatusBadRequest, errors.New("user query parameter is required"))
		return
	}
	loss, err := s.backend.NomadicLoss(userID)
	if err != nil {
		s.fail(w, r, CodecJSON, "privacy failed", userID, err)
		return
	}
	writeJSON(w, http.StatusOK, PrivacyResponse{
		UserID:  userID,
		Epsilon: loss.Epsilon,
		Delta:   loss.Delta,
	})
}
