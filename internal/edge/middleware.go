package edge

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// HTTP telemetry middleware: every route is wrapped in an instrument
// handler that records request counts by status class, a latency
// histogram, and the server-wide in-flight gauge. Handles are resolved
// at wiring time, so the per-request cost is a few atomic adds plus two
// clock reads (request latency is milliseconds-scale; unlike the
// engine's nanosecond selection path, timing every request is free).

// routeMetrics is the pre-resolved telemetry of one route.
type routeMetrics struct {
	reg     *telemetry.Registry
	route   string
	latency *telemetry.Histogram
	// byClass caches the request counters by status class (index
	// status/100). Classes that handlers can emit are pre-created so the
	// exposition lists them from the first scrape; others are resolved
	// through the registry on first occurrence.
	byClass [6]*telemetry.Counter
}

const (
	metricHTTPRequests = "edge_http_requests_total"
	metricHTTPLatency  = "edge_request_latency_seconds"
	metricHTTPInFlight = "edge_http_in_flight_requests"
)

func newRouteMetrics(reg *telemetry.Registry, route string) *routeMetrics {
	rm := &routeMetrics{
		reg:   reg,
		route: route,
		latency: reg.Histogram(metricHTTPLatency, "HTTP request latency by route.",
			nil, telemetry.L("route", route)),
	}
	for _, class := range []int{2, 4, 5} {
		rm.byClass[class] = rm.classCounter(class)
	}
	return rm
}

func (rm *routeMetrics) classCounter(class int) *telemetry.Counter {
	return rm.reg.Counter(metricHTTPRequests, "HTTP requests by route and status class.",
		telemetry.L("route", rm.route), telemetry.L("code", statusClassLabel(class)))
}

func statusClassLabel(class int) string {
	switch class {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	case 5:
		return "5xx"
	}
	return "other"
}

// statusRecorder captures the response status for the middleware.
// Recorders are pooled: the wrapper is the only per-request allocation
// the middleware would otherwise make, and the serving path creates one
// for every single request.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

var statusRecorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// instrument wraps route i's handler with the telemetry middleware and —
// when the server traces — opens the request's root span, adopting the
// client's traceparent header so edge spans join the caller's trace.
func (s *Server) instrument(i int, next func(*Server, http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := s.met.Load()
		rm := m.routes[i]
		m.inFlight.Inc()
		start := time.Now()
		var root *tracing.Span
		if s.tracer != nil {
			var ctx context.Context
			if id, parent, ok := tracing.ParseTraceparent(r.Header.Get(tracing.TraceparentHeader)); ok {
				ctx, root = s.tracer.StartTraceRemote(r.Context(), rm.route, id, parent)
			} else {
				ctx, root = s.tracer.StartTrace(r.Context(), rm.route)
			}
			r = r.WithContext(ctx)
		}
		rec := statusRecorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		next(s, rec, r)
		root.End()
		rm.latency.ObserveDuration(time.Since(start))
		class := rec.status / 100
		if class < 1 || class > 5 {
			class = 5
		}
		rec.ResponseWriter = nil // don't pin the response writer in the pool
		statusRecorderPool.Put(rec)
		c := rm.byClass[class]
		if c == nil {
			// Rare classes (1xx/3xx) resolve through the registry; the
			// get-or-create is cheap and only paid on first occurrence per
			// scrape-visible series.
			c = rm.classCounter(class)
		}
		c.Inc()
		m.inFlight.Dec()
	})
}
