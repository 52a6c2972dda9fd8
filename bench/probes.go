package main

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adnet"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
	"repro/internal/tracing"
	"repro/internal/wal"
)

// probes time every layer of a traced run from outside the program, by
// wrapping the public seams it already has: the HTTP handler, the
// engine's core.Durability sink, the edge.AdProvider and the two
// geoind.Mechanisms. Each wrapper embeds the concrete type it wraps, so
// every method it does not time — including the optional ones the
// program type-asserts, such as the n-fold mechanism's Sigma — is
// forwarded unchanged.
type probes struct {
	// epoch anchors span start offsets.
	epoch time.Time

	mu       sync.Mutex
	handler  [2][]time.Duration // by opKind: report routes, ads route
	provider []time.Duration
	walLat   []time.Duration
	spans    []span

	walBytes       atomic.Int64
	adsFetched     atomic.Int64
	nfold, laplace callStats
}

// span is one timed call into a layer. Handler and provider spans carry
// the trace ID of the client op that caused them; WAL and mechanism calls
// carry no context, so they are kept only as distributions.
type span struct {
	Trace   string `json:"trace"`
	Layer   string `json:"layer"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// callStats counts calls and their total time.
type callStats struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *callStats) add(d time.Duration) {
	c.calls.Add(1)
	c.ns.Add(int64(d))
}

func newProbes() *probes { return &probes{epoch: time.Now()} }

// record appends one span (and its duration to dst) under the lock.
func (p *probes) record(dst *[]time.Duration, trace, layer string, start time.Time, d time.Duration) {
	p.mu.Lock()
	*dst = append(*dst, d)
	if trace != "" {
		p.spans = append(p.spans, span{Trace: trace, Layer: layer, StartUs: start.Sub(p.epoch).Microseconds(), DurUs: d.Microseconds()})
	}
	p.mu.Unlock()
}

// clientSpan records the client side of one op, the root its server-side
// spans link to.
func (p *probes) clientSpan(root *tracing.Span, kind opKind, start time.Time, d time.Duration) {
	layer := "client.report"
	if kind == opQuery {
		layer = "client.query"
	}
	p.mu.Lock()
	p.spans = append(p.spans, span{Trace: root.TraceID(), Layer: layer, StartUs: start.Sub(p.epoch).Microseconds(), DurUs: d.Microseconds()})
	p.mu.Unlock()
}

// wrapHandler times the whole HTTP handler — the edge server's, or with
// gateway set the cluster gateway's — per serving route.
func (p *probes) wrapHandler(next http.Handler, gateway bool) http.Handler {
	reportLayer := "edge.report_handler"
	if gateway {
		reportLayer = "edgecluster.gateway_handler"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		kind, layer := opReport, reportLayer
		switch {
		case r.URL.Path == "/v1/ads":
			kind, layer = opQuery, "edge.ads_handler"
		case !strings.HasPrefix(r.URL.Path, "/v1/report"):
			return
		}
		var trace string
		if id, _, ok := tracing.ParseTraceparent(r.Header.Get(tracing.TraceparentHeader)); ok {
			trace = id.String()
		}
		p.record(&p.handler[kind], trace, layer, start, d)
	})
}

// timedProvider times the untrusted ad network. Implementing
// RequestAdsContext hands it the request context (for the span's trace
// ID); the network itself is context-oblivious, so the edge server's
// behaviour is unchanged.
type timedProvider struct {
	*adnet.Network
	p *probes
}

func (t timedProvider) RequestAds(userID string, loc geo.Point, at time.Time, limit int) []adnet.Ad {
	return t.RequestAdsContext(context.Background(), userID, loc, at, limit)
}

func (t timedProvider) RequestAdsContext(ctx context.Context, userID string, loc geo.Point, at time.Time, limit int) []adnet.Ad {
	start := time.Now()
	ads := t.Network.RequestAds(userID, loc, at, limit)
	d := time.Since(start)
	trace, _ := tracing.ContextTraceID(ctx)
	t.p.adsFetched.Add(int64(len(ads)))
	t.p.record(&t.p.provider, trace, "adnet.request", start, d)
	return ads
}

// timedStore times the engine's WAL appends.
type timedStore struct {
	*wal.Store
	p *probes
}

func (t timedStore) Append(rec []byte) (uint64, error) {
	start := time.Now()
	lsn, err := t.Store.Append(rec)
	d := time.Since(start)
	t.p.walBytes.Add(int64(len(rec)))
	t.p.record(&t.p.walLat, "", "", start, d)
	return lsn, err
}

// timedNFold and timedLaplace count and time mechanism invocations.
type timedNFold struct {
	*geoind.NFoldGaussian
	st *callStats
}

func (m timedNFold) Obfuscate(rnd *randx.Rand, p geo.Point) ([]geo.Point, error) {
	start := time.Now()
	out, err := m.NFoldGaussian.Obfuscate(rnd, p)
	m.st.add(time.Since(start))
	return out, err
}

type timedLaplace struct {
	*geoind.PlanarLaplace
	st *callStats
}

func (m timedLaplace) Obfuscate(rnd *randx.Rand, p geo.Point) ([]geo.Point, error) {
	start := time.Now()
	out, err := m.PlanarLaplace.Obfuscate(rnd, p)
	m.st.add(time.Since(start))
	return out, err
}

// reset drops everything recorded so far, so a traced run's layer
// numbers cover only its measured phase, not setup.
func (p *probes) reset() {
	p.mu.Lock()
	p.handler = [2][]time.Duration{}
	p.provider, p.walLat, p.spans = nil, nil, nil
	p.epoch = time.Now()
	p.mu.Unlock()
	p.walBytes.Store(0)
	p.adsFetched.Store(0)
	for _, c := range []*callStats{&p.nfold, &p.laplace} {
		c.calls.Store(0)
		c.ns.Store(0)
	}
}
