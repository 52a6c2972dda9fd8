// Package client is the mobile-device side of Edge-PrivLocAd: a typed
// HTTP client for the edge service that mobile apps (or the trace replay
// tooling) use to report locations and fetch privacy-filtered ads.
//
// Edge devices are cheap hardware on flaky last-mile links, so the
// client retries: idempotent calls (every GET, plus POST /v1/rebuild)
// that fail at the connection level are re-sent with exponential backoff
// and deterministic jitter, under a per-call attempt budget and never
// past the caller's context deadline. Non-idempotent calls (report, ads)
// are never retried — a dropped response leaves the edge possibly having
// recorded the check-in, and re-sending would double-count it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// Client talks to one edge device. It is safe for concurrent use.
type Client struct {
	baseURL string
	http    *http.Client
	codec   edge.Codec

	// Retry policy for idempotent calls.
	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration

	jmu    sync.Mutex
	jitter *randx.Rand

	retries *telemetry.Counter // nil until Instrument
}

// Option customises a Client.
type Option func(*Client)

// WithRetry sets the retry policy for idempotent calls: at most
// maxAttempts total tries per call (1 disables retries), with
// exponential backoff starting at baseDelay and capped at maxDelay.
func WithRetry(maxAttempts int, baseDelay, maxDelay time.Duration) Option {
	return func(c *Client) {
		if maxAttempts >= 1 {
			c.maxAttempts = maxAttempts
		}
		if baseDelay > 0 {
			c.baseDelay = baseDelay
		}
		if maxDelay > 0 {
			c.maxDelay = maxDelay
		}
	}
}

// WithRetrySeed seeds the backoff jitter stream, making retry timing
// reproducible in tests.
func WithRetrySeed(seed uint64) Option {
	return func(c *Client) { c.jitter = randx.New(seed, 0xC11E47) }
}

// WithCodec selects the serving-path encoding. edge.CodecBinary sends
// report/batch/ads bodies as application/x-privlocad-bin frames and asks
// (via Accept, set on every retry attempt) for binary responses;
// control-plane calls (rebuild, profile, privacy) stay JSON either way.
// The default is edge.CodecJSON, wire-compatible with pre-binary edges.
func WithCodec(codec edge.Codec) Option {
	return func(c *Client) { c.codec = codec }
}

// Codec reports the serving-path encoding the client was built with.
func (c *Client) Codec() edge.Codec { return c.codec }

// DefaultMaxIdleConnsPerHost is the connection-pool depth of the
// default transport. net/http's own default keeps only 2 idle
// connections per host, so any workload with more than two concurrent
// workers against one edge (the benchmark's workers, busy devices
// behind a NAT) would close and re-dial connections on nearly every
// request, serialising the serving path on TCP handshakes instead of
// reusing keep-alive connections.
const DefaultMaxIdleConnsPerHost = 64

// defaultTransport clones the stdlib default transport (keeping its
// proxy, dialer, and timeout settings) and deepens the keep-alive pool
// so concurrent workers reuse connections instead of re-dialing.
func defaultTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = DefaultMaxIdleConnsPerHost
	return tr
}

// New builds a client for the edge service at baseURL (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for a default with a
// 10 s timeout and a keep-alive pool of DefaultMaxIdleConnsPerHost idle
// connections per edge (the stdlib default of 2 collapses concurrent
// replays into serial re-dials). Trailing slashes on baseURL are
// trimmed: the client appends rooted paths like /v1/report, and a kept
// slash would produce //v1/report-style URLs that miss the edge's
// ServeMux patterns.
func New(baseURL string, httpClient *http.Client, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)", baseURL)
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second, Transport: defaultTransport()}
	}
	c := &Client{
		baseURL:     strings.TrimRight(u.String(), "/"),
		http:        httpClient,
		maxAttempts: 3,
		baseDelay:   50 * time.Millisecond,
		maxDelay:    2 * time.Second,
		jitter:      randx.New(1, 0xC11E47),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Instrument registers the client's retry counter
// (client_retries_total) with reg and starts recording.
func (c *Client) Instrument(reg *telemetry.Registry) {
	c.retries = reg.Counter("client_retries_total", "Idempotent edge calls re-sent after a connection-level failure.")
}

// apiError is a non-2xx response from the edge.
type apiError struct {
	Status  int
	Message string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("client: edge returned %d: %s", e.Status, e.Message)
}

// StatusCode extracts the HTTP status of an edge error, or 0 when err is
// not an edge API error.
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// connError marks a connection-level failure: the request may never have
// reached the edge, so no response (not even an error envelope) arrived.
// Only these failures are retry candidates.
type connError struct{ err error }

func (e *connError) Error() string { return e.err.Error() }
func (e *connError) Unwrap() error { return e.err }

func (c *Client) post(ctx context.Context, path string, body, out any, idempotent bool) error {
	// Serving-path messages go binary when the client was built with
	// WithCodec(edge.CodecBinary), and through wire's JSON codec
	// otherwise; control-plane bodies (rebuild) take encoding/json.
	var (
		payload     []byte
		err         error
		contentType = "application/json"
	)
	m, isMsg := body.(wire.Message)
	switch {
	case isMsg && c.codec == edge.CodecBinary:
		payload, contentType = wire.Encode(m), wire.ContentType
	case isMsg:
		// A single report or ad request is about a hundred bytes.
		payload, err = wire.AppendJSON(make([]byte, 0, 128), m)
	default:
		payload, err = json.Marshal(body)
	}
	if err != nil {
		return fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	return c.call(ctx, http.MethodPost, path, contentType, payload, out, idempotent)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.call(ctx, http.MethodGet, path, "", nil, out, true)
}

// call performs one logical API call, re-sending idempotent requests
// after connection-level failures under the retry budget. The request is
// rebuilt each attempt (the body reader is consumed by a send), and the
// codec headers are set on every rebuild so a retried call negotiates
// identically to the first attempt.
func (c *Client) call(ctx context.Context, method, path, contentType string, payload []byte, out any, idempotent bool) error {
	attempts := 1
	if idempotent {
		attempts = c.maxAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt); err != nil {
				return lastErr
			}
			if c.retries != nil {
				c.retries.Inc()
			}
		}
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
		if err != nil {
			return fmt.Errorf("client: building %s request: %w", path, err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", contentType)
		}
		if c.codec == edge.CodecBinary {
			req.Header.Set("Accept", wire.ContentType)
		}
		// When the caller's context carries a trace, propagate it as a
		// traceparent header. Injected on every attempt — the request is
		// rebuilt per send — so a retried call keeps its trace ID and the
		// edge's spans join the same trace as the first attempt's.
		if tp, ok := tracing.ContextTraceparent(ctx); ok {
			req.Header.Set(tracing.TraceparentHeader, tp)
		}
		err = c.do(req, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(ctx, err) {
			return err
		}
	}
	return lastErr
}

// retryable reports whether err is worth re-sending: a connection-level
// failure with the caller's context still live. API errors, decode
// errors, and context cancellation/expiry are final.
func retryable(ctx context.Context, err error) bool {
	var ce *connError
	if !errors.As(err, &ce) {
		return false
	}
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// backoff sleeps the attempt's jittered exponential delay. It returns a
// non-nil error — telling the caller to give up with the previous
// failure — when the context is done or its deadline would expire before
// the delay elapses.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	delay := c.baseDelay << (attempt - 1)
	if delay > c.maxDelay || delay <= 0 {
		delay = c.maxDelay
	}
	// Half fixed, half jitter: spreads synchronized retry storms without
	// ever collapsing the delay to zero.
	c.jmu.Lock()
	delay = delay/2 + time.Duration(c.jitter.Float64()*float64(delay/2))
	c.jmu.Unlock()
	if deadline, ok := ctx.Deadline(); ok && time.Now().Add(delay).After(deadline) {
		return context.DeadlineExceeded
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return &connError{err: fmt.Errorf("client: %s %s: %w", req.Method, req.URL.Path, err)}
	}
	defer resp.Body.Close()

	binaryResp := strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentType)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := ""
		if body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096)); rerr == nil {
			var env wire.ErrorResponse
			switch {
			case binaryResp:
				if derr := wire.Decode(body, &env); derr == nil {
					msg = env.Error
				}
			case wire.DecodeJSON(body, &env) == nil:
				msg = env.Error
			default:
				msg = string(body)
			}
		}
		return &apiError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	m, isMsg := out.(wire.Message)
	if !isMsg {
		if binaryResp {
			return fmt.Errorf("client: %s answered %s but %T is not a wire message", req.URL.Path, wire.ContentType, out)
		}
		// Control-plane responses (profile, privacy) are not wire messages.
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s response: %w", req.URL.Path, err)
		}
		return nil
	}
	// A wire message is read whole into a pooled buffer, then decoded by
	// the body's own Content-Type: a binary-preferring client still
	// decodes JSON answers from routes (or old edges) that never
	// negotiate. Both decoders copy strings out, so the buffer is free
	// again once the message is decoded.
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufPool.Put(buf)
		}
	}()
	buf.Reset()
	if n := resp.ContentLength; n > 0 && n <= wire.MaxMessageBytes {
		// Room for the body and for the final read that reports EOF.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return &connError{err: fmt.Errorf("client: reading %s response: %w", req.URL.Path, err)}
	}
	if binaryResp {
		err = wire.Decode(buf.Bytes(), m)
	} else {
		err = wire.DecodeJSON(buf.Bytes(), m)
	}
	if err != nil {
		return fmt.Errorf("client: decoding %s response: %w", req.URL.Path, err)
	}
	return nil
}

// bodyBufPool recycles the buffers wire-message responses are read into.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers bodyBufPool keeps, so one huge response
// does not pin its buffer for the client's lifetime.
const maxPooledBody = 1 << 18

// Report sends one location check-in. A zero time lets the edge stamp
// it. Not retried: a lost response leaves the edge possibly having
// recorded the check-in already.
func (c *Client) Report(ctx context.Context, userID string, pos geo.Point, at time.Time) error {
	return c.post(ctx, "/v1/report", &edge.ReportRequest{UserID: userID, Pos: pos, Time: at}, nil, false)
}

// ReportBatch sends many location check-ins in one round trip. Like
// Report it is not retried: a lost response leaves the edge possibly
// having recorded some or all of the batch, and re-sending would
// double-count those check-ins. The response carries per-item errors
// (by input index); entries without an error were accepted.
func (c *Client) ReportBatch(ctx context.Context, reports []edge.ReportRequest) (edge.ReportBatchResponse, error) {
	var resp edge.ReportBatchResponse
	err := c.post(ctx, "/v1/report/batch", &edge.ReportBatchRequest{Reports: reports}, &resp, false)
	return resp, err
}

// RequestAds asks the edge for ads relevant to the user's true position;
// the edge handles obfuscation and AOI filtering. Not retried: the edge
// records the request position as an implicit check-in.
func (c *Client) RequestAds(ctx context.Context, userID string, pos geo.Point, limit int) (edge.AdsResponse, error) {
	var resp edge.AdsResponse
	err := c.post(ctx, "/v1/ads", &edge.AdsRequest{UserID: userID, Pos: pos, Limit: limit}, &resp, false)
	return resp, err
}

// Rebuild forces an immediate profile recomputation for the user.
// Idempotent (recomputing twice converges to the same state), so it is
// retried on connection failures.
func (c *Client) Rebuild(ctx context.Context, userID string, now time.Time) error {
	return c.post(ctx, "/v1/rebuild", edge.RebuildRequest{UserID: userID, Now: now}, nil, true)
}

// Profile fetches the user's current top-location profile.
func (c *Client) Profile(ctx context.Context, userID string) (edge.ProfileResponse, error) {
	var resp edge.ProfileResponse
	err := c.get(ctx, "/v1/profile?user="+url.QueryEscape(userID), &resp)
	return resp, err
}

// Privacy fetches the user's cumulative nomadic privacy loss.
func (c *Client) Privacy(ctx context.Context, userID string) (edge.PrivacyResponse, error) {
	var resp edge.PrivacyResponse
	err := c.get(ctx, "/v1/privacy?user="+url.QueryEscape(userID), &resp)
	return resp, err
}

// Stats fetches the edge's O(1) serving aggregates. Idempotent, so it
// is retried on connection failures; binary clients receive it framed.
func (c *Client) Stats(ctx context.Context) (edge.StatsResponse, error) {
	var resp edge.StatsResponse
	err := c.get(ctx, "/v1/stats", &resp)
	return resp, err
}

// Health checks the edge liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.get(ctx, "/healthz", nil)
}
