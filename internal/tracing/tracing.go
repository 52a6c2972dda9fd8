// Package tracing is the repo's stdlib-only request-tracing layer: every
// serving request gets a deterministic trace ID (derived from
// internal/randx's SplitMix64 finalizer, so runs are reproducible),
// per-stage spans (handler / shard apply / WAL append / ad-provider call
// / failover hop) recorded into internal/telemetry histograms, and a
// bounded in-memory ring of completed traces served at GET /debug/traces.
//
// Trace context crosses process boundaries as a W3C-traceparent-style
// header ("00-<32 hex trace>-<16 hex span>-01"): the client injects it on
// every attempt of a call, the edge middleware adopts it, and the span
// context then threads through the engine's report/request paths down to
// the WAL append. When a latency SLO is missed, the per-stage histograms
// say where the time went in aggregate and the trace ring says where it
// went on the slowest individual requests — the per-request attribution
// that makes the paper's latency claims auditable at serving scale.
//
// The layer is nil-safe end to end: StartSpan on a context without a
// trace returns a nil *Span, and every *Span method is a no-op on nil,
// so untraced paths (engine unit tests, replay tooling) pay one context
// lookup and nothing else.
package tracing

import (
	"context"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/randx"
	"repro/internal/telemetry"
)

// Stage names one timed segment of a request's path through the system.
type Stage uint8

// The per-stage breakdown rows. StageHandler is the root span covering
// the whole request; the others nest inside it.
const (
	// StageHandler is the full HTTP handler (or cluster request envelope).
	StageHandler Stage = iota
	// StageApply is the engine's shard-locked state apply.
	StageApply
	// StageWAL is the durability append (group commit + fsync wait).
	StageWAL
	// StageProvider is the untrusted ad-provider call.
	StageProvider
	// StageFailover wraps an engine call that was re-routed past a down
	// edge to the next-nearest covering live node.
	StageFailover

	numStages
)

// String returns the stage's metric label.
func (s Stage) String() string {
	switch s {
	case StageHandler:
		return "handler"
	case StageApply:
		return "apply"
	case StageWAL:
		return "wal"
	case StageProvider:
		return "provider"
	case StageFailover:
		return "failover"
	}
	return "unknown"
}

// Stages lists every stage, in breakdown display order.
func Stages() []Stage {
	return []Stage{StageHandler, StageApply, StageWAL, StageProvider, StageFailover}
}

// TraceID identifies one end-to-end request (128 bits, rendered as 32
// hex digits in traceparent headers).
type TraceID struct{ Hi, Lo uint64 }

// IsZero reports the invalid all-zero ID (traceparent forbids it).
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var b [32]byte
	hex16(b[:16], id.Hi)
	hex16(b[16:], id.Lo)
	return string(b[:])
}

// SpanID identifies one span within a trace (64 bits, 16 hex digits).
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var b [16]byte
	hex16(b[:], uint64(id))
	return string(b[:])
}

const hexDigits = "0123456789abcdef"

func hex16(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xF]
		v >>= 4
	}
}

// SpanRecord is one completed span of a finished trace.
type SpanRecord struct {
	SpanID string `json:"span_id"`
	Parent string `json:"parent_span_id,omitempty"`
	Stage  string `json:"stage"`
	// StartOffsetUs is the span's start relative to the trace start.
	StartOffsetUs int64 `json:"start_offset_us"`
	DurationUs    int64 `json:"duration_us"`
}

// TraceRecord is one finished trace as kept in the ring and served by
// GET /debug/traces.
type TraceRecord struct {
	TraceID    string       `json:"trace_id"`
	Name       string       `json:"name"`
	Start      time.Time    `json:"start"`
	DurationUs int64        `json:"duration_us"`
	Slow       bool         `json:"slow,omitempty"`
	Spans      []SpanRecord `json:"spans"`
}

// tracerMetrics holds the registry-backed handles, resolved once at
// Instrument time (the engine/wal idiom: nil until instrumented, so the
// uninstrumented path pays one atomic load).
type tracerMetrics struct {
	spanSeconds [numStages]*telemetry.Histogram
	traces      *telemetry.Counter
	slow        *telemetry.Counter
}

// DefaultRingSize bounds the completed-trace ring: enough recent traces
// to cover a burst of slow requests, small enough to pin only a few
// hundred kilobytes.
const DefaultRingSize = 256

// Tracer mints deterministic trace/span IDs and collects finished
// traces. It is safe for concurrent use; the ID stream is a pure
// function of (seed, allocation index), so a fixed workload yields the
// same IDs run to run regardless of goroutine interleaving of the
// requests themselves.
type Tracer struct {
	gamma  uint64
	seq    atomic.Uint64
	active atomic.Int64

	slowThreshold time.Duration
	logger        *slog.Logger
	met           atomic.Pointer[tracerMetrics]

	ringCap int // immutable after New; read without mu
	mu      sync.Mutex
	ring    []TraceRecord
	next    int
}

// Option customises a Tracer.
type Option func(*Tracer)

// WithRingSize bounds the completed-trace ring (0 disables retention;
// spans still feed the histograms).
func WithRingSize(n int) Option {
	return func(t *Tracer) {
		if n >= 0 {
			t.ringCap = n
			t.ring = make([]TraceRecord, 0, n)
		}
	}
}

// WithSlowThreshold marks traces at or above d as slow: they bump
// tracing_slow_traces_total and, when a logger is attached, emit one
// structured log line carrying the trace ID. d <= 0 disables slow
// marking (the default, keeping metric output deterministic for tests).
func WithSlowThreshold(d time.Duration) Option {
	return func(t *Tracer) { t.slowThreshold = d }
}

// WithLogger attaches the structured logger for slow-trace samples.
func WithLogger(l *slog.Logger) Option {
	return func(t *Tracer) { t.logger = l }
}

// New builds a tracer whose ID stream is derived from seed. The seed is
// avalanched (Mix64) BEFORE the per-ID golden-ratio increment, the same
// recipe as the engine's per-edge seed derivation: a plain
// seed + n*GoldenGamma is linear, so nearby seeds would collide across
// indexes.
func New(seed uint64, opts ...Option) *Tracer {
	t := &Tracer{
		gamma:   randx.Mix64(seed),
		ringCap: DefaultRingSize,
		ring:    make([]TraceRecord, 0, DefaultRingSize),
	}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// nextWord returns the next 64-bit word of the deterministic ID stream.
func (t *Tracer) nextWord() uint64 {
	n := t.seq.Add(1)
	return randx.Mix64(t.gamma + n*randx.GoldenGamma)
}

// Instrument registers the tracer's metrics with reg and starts
// recording span timings: tracing_span_seconds{stage=...} histograms,
// tracing_traces_total / tracing_slow_traces_total counters, and the
// tracing_active_spans gauge (spans started and not yet ended — it
// returns to 0 when no request is in flight, which verify.sh asserts
// after the lbasim smokes as a span-leak gate).
func (t *Tracer) Instrument(reg *telemetry.Registry) {
	m := &tracerMetrics{
		traces: reg.Counter("tracing_traces_total", "Finished request traces."),
		slow:   reg.Counter("tracing_slow_traces_total", "Finished traces at or above the slow threshold."),
	}
	for _, st := range Stages() {
		m.spanSeconds[st] = reg.Histogram("tracing_span_seconds",
			"Span latency by request stage.", nil, telemetry.L("stage", st.String()))
	}
	reg.GaugeFunc("tracing_active_spans", "Spans started and not yet ended.",
		func() float64 { return float64(t.active.Load()) })
	t.met.Store(m)
}

// ActiveSpans returns the number of spans started and not yet ended.
func (t *Tracer) ActiveSpans() int64 { return t.active.Load() }

// activeTrace is a trace under construction, shared by its spans.
type activeTrace struct {
	tracer *Tracer
	id     TraceID
	name   string
	start  time.Time
	root   *Span

	mu    sync.Mutex
	spans []SpanRecord
}

// Span is one timed segment. All methods are no-ops on a nil receiver,
// and End is idempotent, so spans can be ended from racing paths (e.g.
// a provider call abandoned at its timeout).
type Span struct {
	trace  *activeTrace
	stage  Stage
	id     SpanID
	parent SpanID
	start  time.Time
	ended  atomic.Bool
}

// spanCtxKey carries the current *Span through a context.
type spanCtxKey struct{}

// With returns ctx carrying span as the current span.
func With(ctx context.Context, span *Span) context.Context {
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, span)
}

// FromContext returns the current span, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// TraceID returns the span's trace ID string (empty on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace.id.String()
}

// SpanID returns the span's own ID (zero on nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// StartTrace opens a new trace with freshly minted IDs; the returned
// root span carries StageHandler and the returned context carries it for
// StartSpan nesting. End the root span to finish the trace.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	return t.startTrace(ctx, name, TraceID{Hi: t.nextWord(), Lo: t.nextWord()}, 0)
}

// StartTraceRemote opens a trace continuing a remote caller's trace ID
// (from a parsed traceparent header), so the edge-side spans join the
// client's trace instead of starting a disjoint one. A zero ID falls
// back to fresh IDs.
func (t *Tracer) StartTraceRemote(ctx context.Context, name string, id TraceID, parent SpanID) (context.Context, *Span) {
	if id.IsZero() {
		return t.StartTrace(ctx, name)
	}
	return t.startTrace(ctx, name, id, parent)
}

func (t *Tracer) startTrace(ctx context.Context, name string, id TraceID, parent SpanID) (context.Context, *Span) {
	now := time.Now()
	at := &activeTrace{tracer: t, id: id, name: name, start: now}
	sp := &Span{trace: at, stage: StageHandler, id: SpanID(t.nextWord()), parent: parent, start: now}
	at.root = sp
	t.active.Add(1)
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// StartSpan opens a child span of the context's current span. Without a
// trace in ctx it returns (ctx, nil) — the no-op path for untraced
// callers.
func StartSpan(ctx context.Context, stage Stage) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	at := parent.trace
	t := at.tracer
	sp := &Span{trace: at, stage: stage, id: SpanID(t.nextWord()), parent: parent.id, start: time.Now()}
	t.active.Add(1)
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// End finishes the span: its duration feeds the stage histogram and the
// trace's span list. Ending the root span finalises the trace (ring
// push, counters, slow-trace log). Safe on nil and idempotent — a span
// raced between a timeout path and a drain path records exactly once.
// A child ended after its root has finalised still feeds the histograms
// and the active-span gauge; only the ring record misses it.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	at := s.trace
	t := at.tracer
	d := time.Since(s.start)
	t.active.Add(-1)
	if m := t.met.Load(); m != nil {
		m.spanSeconds[s.stage].ObserveDuration(d)
	}
	rec := SpanRecord{
		SpanID:        s.id.String(),
		Stage:         s.stage.String(),
		StartOffsetUs: s.start.Sub(at.start).Microseconds(),
		DurationUs:    d.Microseconds(),
	}
	if s.parent != 0 {
		rec.Parent = s.parent.String()
	}
	at.mu.Lock()
	at.spans = append(at.spans, rec)
	at.mu.Unlock()
	if s == at.root {
		t.finish(at, d)
	}
}

// finish records a completed trace.
func (t *Tracer) finish(at *activeTrace, d time.Duration) {
	slow := t.slowThreshold > 0 && d >= t.slowThreshold
	if m := t.met.Load(); m != nil {
		m.traces.Inc()
		if slow {
			m.slow.Inc()
		}
	}
	at.mu.Lock()
	spans := at.spans
	at.spans = nil
	at.mu.Unlock()
	rec := TraceRecord{
		TraceID:    at.id.String(),
		Name:       at.name,
		Start:      at.start,
		DurationUs: d.Microseconds(),
		Slow:       slow,
		Spans:      spans,
	}
	if t.ringCap > 0 {
		t.mu.Lock()
		if len(t.ring) < t.ringCap {
			t.ring = append(t.ring, rec)
		} else {
			t.ring[t.next] = rec
			t.next = (t.next + 1) % len(t.ring)
		}
		t.mu.Unlock()
	}
	if slow && t.logger != nil {
		t.logger.Warn("slow trace",
			"trace_id", rec.TraceID, "name", at.name,
			"duration", d, "spans", len(spans))
	}
}

// SlowestTraces returns up to n completed traces from the ring, slowest
// first (n <= 0 returns the whole ring).
func (t *Tracer) SlowestTraces(n int) []TraceRecord {
	t.mu.Lock()
	out := make([]TraceRecord, len(t.ring))
	copy(out, t.ring)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].DurationUs > out[j].DurationUs })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ContextTraceparent renders the context's current span as a
// traceparent header value; ok is false without a trace in ctx. The
// client injects this on every attempt of a call, so retries carry the
// same trace ID as the first send.
func ContextTraceparent(ctx context.Context) (string, bool) {
	sp := FromContext(ctx)
	if sp == nil {
		return "", false
	}
	return FormatTraceparent(sp.trace.id, sp.id), true
}

// ContextTraceID returns the context's current trace ID string; ok is
// false without a trace. Request-scoped log lines attach it so a slow
// or failing request's logs join its trace.
func ContextTraceID(ctx context.Context) (string, bool) {
	sp := FromContext(ctx)
	if sp == nil {
		return "", false
	}
	return sp.trace.id.String(), true
}

// StageStat is one row of the per-stage latency breakdown lbasim
// prints after a replay.
type StageStat struct {
	Stage    string
	Count    uint64
	Overflow uint64
	P50Ms    float64
	P95Ms    float64
	P99Ms    float64
}

// StageBreakdown reads the tracing_span_seconds histograms back out of
// reg (get-or-create, so stages with no traffic report zero) and
// returns one row per stage in display order.
func StageBreakdown(reg *telemetry.Registry) []StageStat {
	out := make([]StageStat, 0, int(numStages))
	for _, st := range Stages() {
		h := reg.Histogram("tracing_span_seconds", "Span latency by request stage.",
			nil, telemetry.L("stage", st.String()))
		s := StageStat{
			Stage:    st.String(),
			Count:    h.Count(),
			Overflow: h.Overflow(),
			P50Ms:    quantileMs(h, 0.50),
			P95Ms:    quantileMs(h, 0.95),
			P99Ms:    quantileMs(h, 0.99),
		}
		out = append(out, s)
	}
	return out
}

func quantileMs(h *telemetry.Histogram, q float64) float64 {
	v := h.Quantile(q)
	if v != v { // NaN: no observations yet
		return 0
	}
	return v * 1000
}

// parseN parses the ?n= query value with a default.
func parseN(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return def
	}
	return n
}
