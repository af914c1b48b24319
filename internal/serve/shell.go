package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tcor/internal/buildinfo"
	"tcor/internal/stats"
)

// Shell is the HTTP request shell both serving tiers answer through: the
// shard daemon (Server) and the cluster gateway. It holds the metering,
// tracing and panic-isolating middleware, the simulation front door, the
// JSON error envelope and the plumbing endpoints, so the two tiers answer
// the same malformed request with the same bytes. What really differs
// between the tiers enters through the hook fields; the rest is identity
// (metric handles, span service, draining error) and limits.
type Shell struct {
	// Service is the category of the tier's spans ("serve", "cluster").
	Service  string
	Tracer   *stats.Tracer
	Logger   *slog.Logger
	Registry *stats.Registry

	// Requests counts every request, Responses[c] the responses of status
	// class c (a class without a counter is not metered), Panics the
	// recovered handler panics; Latency observes whole-request wall time
	// in ns.
	Requests  *stats.Counter
	Responses map[int]*stats.Counter
	Panics    *stats.Counter
	Latency   *stats.Histogram

	// Draining is the tier's drain flag: while it is set, BeginSim answers
	// DrainErr and /readyz answers 503.
	Draining *atomic.Bool
	DrainErr error
	// DefaultTimeout is RequestContext's deadline for a request that
	// carries none; DefaultMaxTimeout clamps the deadline either way.
	DefaultTimeout time.Duration

	// Before runs ahead of the handler, with the request ID, tracer and
	// root span already in the request context. It returns the request
	// the handler and the access log see, and false once it has answered
	// the request itself.
	Before func(w http.ResponseWriter, r *http.Request) (*http.Request, bool)
	// Degraded says why the tier cannot take work ("" = ready); /readyz
	// answers 503 with it.
	Degraded func() string
	// MapError renders an error that is neither an *APIError nor a
	// context error: the tier's own error types and its fallback.
	MapError func(error) *APIError
	// RetryAfter, when set, sizes the hint of a 429 that carries none.
	RetryAfter func() time.Duration
	// LogAttrs, when set, returns the tier's extra access-log attributes.
	// It runs before the request's root span ends, so it may annotate it.
	LogAttrs func(ctx context.Context) []slog.Attr
}

// APIError is an error with an HTTP mapping, rendered by WriteError as the
// ErrorBody envelope. Both tiers build their rejections from it.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter, when positive, becomes the response's Retry-After header
	// (rounded up to whole seconds). A 429 without one gets the tier's
	// RetryAfter estimate.
	RetryAfter time.Duration
	// allow is the Allow header of a 405; MethodNotAllowed sets it.
	allow string
}

func (e *APIError) Error() string { return e.Message }

// BadRequest is a 400 invalid_request with a formatted message.
func BadRequest(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: "invalid_request",
		Message: fmt.Sprintf(format, args...)}
}

// MethodNotAllowed is the 405 for a route that serves only methods; the
// response carries them in the Allow header (RFC 9110 §15.5.6).
func MethodNotAllowed(methods ...string) *APIError {
	return &APIError{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
		Message: "use " + strings.Join(methods, " or "), allow: strings.Join(methods, ", ")}
}

// statusRecorder captures the response status for the metering middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Wrap returns next behind the shell's middleware. It mints or honors the
// X-Request-Id header (echoed on the response and carried in the context,
// so proxied and admitted work keeps the caller's ID), joins the caller's
// trace or roots a new one under a per-request span, runs Before, isolates
// handler panics (500 internal_panic; the process keeps serving), meters
// request and response-class counters plus the latency histogram, and
// emits one structured access-log line per request.
func (sh *Shell) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sh.Requests.Inc()

		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > maxRequestIDLen {
			id = MintRequestID()
		}
		w.Header().Set(RequestIDHeader, id)

		// Join the caller's trace when a valid traceparent arrived (the
		// gateway or typed client injects one per hop); otherwise this
		// process is the trace root. The response echoes the request's own
		// trace context so callers — and CI — can fetch the stitched trace
		// for a request they just made.
		var sp *stats.Span
		if parent, ok := stats.ExtractTraceparent(r.Header); ok {
			sp = sh.Tracer.BeginRemote("http.request", sh.Service, parent)
		} else {
			sp = sh.Tracer.Begin("http.request", sh.Service)
		}
		stats.InjectTraceparent(w.Header(), sp.Context())
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		sp.SetAttr("requestId", id)

		ctx := ContextWithRequestID(r.Context(), id)
		ctx = stats.ContextWithTracer(ctx, sh.Tracer)
		ctx = stats.ContextWithSpan(ctx, sp)
		r = r.WithContext(ctx)

		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				sh.Panics.Inc()
				sh.Logger.Error("panic", "id", id, "method", r.Method,
					"path", r.URL.Path, "panic", fmt.Sprint(p))
				if rec.status == 0 {
					sh.WriteError(rec, &APIError{Status: http.StatusInternalServerError,
						Code: "internal_panic", Message: "internal error"})
				}
			}
			if rec.status == 0 {
				// The handler wrote nothing (e.g. a body-less 200).
				rec.status = http.StatusOK
			}
			if c := sh.Responses[rec.status/100]; c != nil {
				c.Inc()
			}
			dur := time.Since(t0)
			sh.Latency.Observe(int64(dur))
			sp.SetAttr("status", strconv.Itoa(rec.status))
			attrs := []slog.Attr{
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Duration("dur", dur),
			}
			if sh.LogAttrs != nil {
				attrs = append(attrs, sh.LogAttrs(r.Context())...)
			}
			sp.End()
			sh.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}()

		if sh.Before != nil {
			var ok bool
			if r, ok = sh.Before(rec, r); !ok {
				return
			}
		}
		next.ServeHTTP(rec, r)
	})
}

// Mux returns a route mux holding the endpoints every tier serves the same
// way: liveness, readiness, version, benchmarks, stats, Prometheus metrics
// and the span trace. Each tier adds its own API routes to it.
func (sh *Shell) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/readyz", sh.handleReadyz)
	mux.HandleFunc("/v1/version", sh.GetJSON(func(*http.Request) (any, error) { return buildinfo.Get(), nil }))
	mux.HandleFunc("/v1/benchmarks", sh.GetJSON(func(*http.Request) (any, error) { return benchmarkRows(), nil }))
	mux.HandleFunc("/v1/stats", sh.GetJSON(func(*http.Request) (any, error) { return sh.Registry.Snapshot(), nil }))
	mux.Handle("/metrics", stats.MetricsHandler("tcord", sh.Registry))
	mux.HandleFunc("/debug/trace", sh.handleDebugTrace)
	return mux
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (sh *Shell) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if sh.Draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	if why := sh.Degraded(); why != "" {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "degraded: "+why+"\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// GetJSON serves a GET-only endpoint whose body is the JSON value value
// computes for the request; its error is answered instead.
func (sh *Shell) GetJSON(value func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			sh.WriteError(w, MethodNotAllowed(http.MethodGet))
			return
		}
		v, err := value(r)
		if err != nil {
			sh.WriteError(w, err)
			return
		}
		sh.WriteJSON(w, v)
	}
}

// handleDebugTrace serves the process's span trace. Without parameters it
// renders the whole buffer as Chrome trace_event JSON (chrome://tracing,
// Perfetto) — the historical shape CI pins. With ?trace=<32-hex-id> it
// serves the raw span records of that one trace as a stats.TraceSet, the
// pull path the gateway's cluster collector stitches from. With tracing
// disabled both shapes are empty rather than errors, so scrapers need no
// config knowledge.
func (sh *Shell) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		sh.WriteError(w, MethodNotAllowed(http.MethodGet))
		return
	}
	if q := r.URL.Query().Get("trace"); q != "" {
		id, err := stats.ParseTraceID(q)
		if err != nil {
			sh.WriteError(w, BadRequest("trace parameter: %v", err))
			return
		}
		sh.WriteJSON(w, sh.Tracer.TraceSet("", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := sh.Tracer.WriteChromeTrace(w); err != nil {
		sh.Logger.Error("trace export", "err", err)
	}
}

// BeginSim is the front door of the simulation endpoints: method check,
// drain check, body read bounded by DefaultMaxBodyBytes, strict decode
// into into. It returns the raw body (the async job path content-addresses
// it, and the gateway forwards it verbatim) and false after writing the
// error response itself.
func (sh *Shell) BeginSim(w http.ResponseWriter, r *http.Request, into any) ([]byte, bool) {
	if r.Method != http.MethodPost {
		sh.WriteError(w, MethodNotAllowed(http.MethodPost))
		return nil, false
	}
	if sh.Draining.Load() {
		sh.WriteError(w, sh.DrainErr)
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			sh.WriteError(w, &APIError{Status: http.StatusRequestEntityTooLarge,
				Code:    "body_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", DefaultMaxBodyBytes)})
		} else {
			sh.WriteError(w, BadRequest("reading request body: %v", err))
		}
		return nil, false
	}
	if err := decodeStrict(body, into); err != nil {
		sh.WriteError(w, err)
		return nil, false
	}
	return body, true
}

// ResolveSweep is the sweep check every tier runs after BeginSim: one to
// limit items (tier names whose limit a longer sweep exceeds), each
// resolved by resolve. It returns the resolved items and the longest item
// timeout, the whole sweep's deadline.
func ResolveSweep[T any](req SweepRequest, limit int, tier string, resolve func(SimulateRequest) (T, error)) ([]T, int, error) {
	if len(req.Items) == 0 {
		return nil, 0, BadRequest("sweep needs at least one item")
	}
	if len(req.Items) > limit {
		return nil, 0, BadRequest("sweep has %d items; the %s limit is %d", len(req.Items), tier, limit)
	}
	out := make([]T, len(req.Items))
	var timeoutMs int
	for i, item := range req.Items {
		v, err := resolve(item)
		if err != nil {
			return nil, 0, BadRequest("item %d: %v", i, err)
		}
		out[i] = v
		timeoutMs = max(timeoutMs, item.TimeoutMs)
	}
	return out, timeoutMs, nil
}

// RequestContext derives the per-request deadline: the request-supplied
// timeout clamped to DefaultMaxTimeout, falling back to DefaultTimeout.
func (sh *Shell) RequestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := sh.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), min(d, DefaultMaxTimeout))
}

// WriteError renders any error as the JSON error envelope. Context errors
// map to timeout/cancellation statuses; everything that is not an
// *APIError goes through the tier's MapError.
func (sh *Shell) WriteError(w http.ResponseWriter, err error) {
	var ae *APIError
	switch {
	case errors.As(err, &ae):
	case errors.Is(err, context.DeadlineExceeded):
		ae = &APIError{Status: http.StatusGatewayTimeout, Code: "deadline_exceeded",
			Message: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is for the log/metrics only.
		ae = &APIError{Status: 499, Code: "canceled", Message: "request canceled"}
	default:
		ae = sh.MapError(err)
	}
	retryAfter := ae.RetryAfter
	if ae.Status == http.StatusTooManyRequests && retryAfter <= 0 && sh.RetryAfter != nil {
		retryAfter = sh.RetryAfter()
	}
	if retryAfter > 0 {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	if ae.allow != "" {
		w.Header().Set("Allow", ae.allow)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.Status)
	json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Code: ae.Code, Message: ae.Message}}) //nolint:errcheck
}

// WriteResult writes a served /v1/simulate or /v1/arena body with its cache
// disposition, the same on every tier; a stale body carries a Warning.
func WriteResult(w http.ResponseWriter, body []byte, disposition string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Tcord-Cache", disposition)
	if disposition == string(outcomeStale) {
		w.Header().Set("Warning", `110 tcord "response is stale"`)
	}
	w.Write(body) //nolint:errcheck // client gone is its own problem
}

// WriteJSON writes v as a 200 JSON body.
func (sh *Shell) WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		sh.Logger.Error("encoding response", "err", err)
	}
}
