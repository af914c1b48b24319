package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tcor/internal/gpu"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

// fastSim is an instant simulate hook, so telemetry tests exercise the full
// request path without paying for a real simulation.
func fastSim(ctx context.Context, scene *workload.Scene, cfg gpu.Config) (*gpu.Result, error) {
	return &gpu.Result{Benchmark: scene.Spec.Alias, Frames: 1}, nil
}

// syncBuffer is a goroutine-safe log sink (slog handlers may be driven from
// concurrent requests).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestAccessLogCarriesTelemetry(t *testing.T) {
	var buf syncBuffer
	s := NewServer(Options{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	s.simulate = fastSim
	h := s.Handler()

	rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get(RequestIDHeader)

	var line map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l map[string]any
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line is not JSON: %q", raw)
		}
		if l["msg"] == "request" {
			line = l
		}
	}
	if line == nil {
		t.Fatalf("no access-log line in %q", buf.String())
	}
	if line["id"] != id {
		t.Errorf("log id = %v, want the echoed header %q", line["id"], id)
	}
	if line["method"] != "POST" || line["path"] != "/v1/simulate" {
		t.Errorf("log method/path = %v/%v", line["method"], line["path"])
	}
	if line["status"] != float64(http.StatusOK) {
		t.Errorf("log status = %v, want 200", line["status"])
	}
	if line["cache"] != "miss" {
		t.Errorf("log cache = %v, want miss", line["cache"])
	}
	if _, ok := line["queueWait"]; !ok {
		t.Error("log line is missing queueWait")
	}
	if dur, ok := line["dur"].(float64); !ok || dur <= 0 {
		t.Errorf("log dur = %v, want a positive duration", line["dur"])
	}

	// A repeat of the same request logs the cache hit.
	postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`)
	if !strings.Contains(buf.String(), `"cache":"hit"`) {
		t.Errorf("second request did not log a cache hit: %s", buf.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewServer(Options{})
	s.simulate = fastSim
	h := s.Handler()
	if rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`); rec.Code != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", rec.Code, rec.Body)
	}

	rec := getPath(h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE tcord_serve_http_latency histogram",
		"tcord_serve_http_latency_bucket{le=",
		"tcord_serve_http_latency_count",
		"tcord_serve_queue_wait_count",
		"tcord_serve_sim_duration_count 1",
		"tcord_serve_admitted 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	s := NewServer(Options{})
	s.simulate = fastSim
	h := s.Handler()
	if rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`); rec.Code != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", rec.Code, rec.Body)
	}

	rec := getPath(h, "/debug/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d", rec.Code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/trace is not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
		if e.Name == "http.request" && e.Args["requestId"] == "" {
			t.Error("http.request span is missing the requestId attr")
		}
	}
	for _, want := range []string{"http.request", "simulate", "encode"} {
		if !seen[want] {
			t.Errorf("trace is missing a %q span (have %v)", want, seen)
		}
	}
}

// TestTraceparentPropagation pins the middleware's join-or-mint contract:
// a valid inbound traceparent is adopted (same trace, remote parent link),
// anything else mints a fresh root — and the response always echoes the
// request's own trace context.
func TestTraceparentPropagation(t *testing.T) {
	s := NewServer(Options{})
	h := s.Handler()

	// No inbound context: a root trace is minted and echoed.
	rec := getPath(h, "/healthz")
	minted, err := stats.ParseTraceparent(rec.Header().Get(stats.TraceparentHeader))
	if err != nil {
		t.Fatalf("response traceparent: %v", err)
	}

	// A valid inbound context is joined: same trace ID, new span ID,
	// remote-parent link recorded on the span.
	parent := stats.TraceContext{TraceID: stats.NewTraceID(), SpanID: stats.NewSpanID(), Flags: 1}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	stats.InjectTraceparent(req.Header, parent)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	echoed, err := stats.ParseTraceparent(rec2.Header().Get(stats.TraceparentHeader))
	if err != nil {
		t.Fatalf("response traceparent: %v", err)
	}
	if echoed.TraceID != parent.TraceID {
		t.Errorf("joined trace ID = %s, want the inbound %s", echoed.TraceID, parent.TraceID)
	}
	if echoed.SpanID == parent.SpanID {
		t.Error("server echoed the caller's span ID instead of minting its own")
	}
	if echoed.TraceID == minted.TraceID {
		t.Error("two unrelated requests shared a trace ID")
	}
	spans := s.tracer.TraceSpans(parent.TraceID)
	if len(spans) != 1 {
		t.Fatalf("joined trace has %d spans, want 1", len(spans))
	}
	if !spans[0].Remote || spans[0].ParentSpan != parent.SpanID {
		t.Errorf("span did not record the remote parent: %+v", spans[0])
	}

	// A malformed inbound header degrades to a fresh root, not an error.
	req3 := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req3.Header.Set(stats.TraceparentHeader, "garbage")
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req3)
	if rec3.Code != http.StatusOK {
		t.Fatalf("malformed traceparent broke the request: %d", rec3.Code)
	}
	fresh, err := stats.ParseTraceparent(rec3.Header().Get(stats.TraceparentHeader))
	if err != nil {
		t.Fatalf("response traceparent after malformed inbound: %v", err)
	}
	if fresh.TraceID == parent.TraceID {
		t.Error("malformed inbound header was adopted")
	}
}

// TestDebugTraceByID pins the pull path the gateway collector stitches
// from: ?trace=<id> returns that trace's spans as a TraceSet.
func TestDebugTraceByID(t *testing.T) {
	s := NewServer(Options{})
	s.simulate = fastSim
	h := s.Handler()

	parent := stats.TraceContext{TraceID: stats.NewTraceID(), SpanID: stats.NewSpanID(), Flags: 1}
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"benchmark":"CCS","frames":1}`))
	req.Header.Set("Content-Type", "application/json")
	stats.InjectTraceparent(req.Header, parent)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", rec.Code, rec.Body)
	}

	dump := getPath(h, "/debug/trace?trace="+parent.TraceID.String())
	if dump.Code != http.StatusOK {
		t.Fatalf("/debug/trace?trace= status = %d: %s", dump.Code, dump.Body)
	}
	var ts stats.TraceSet
	if err := json.Unmarshal(dump.Body.Bytes(), &ts); err != nil {
		t.Fatalf("trace dump is not a TraceSet: %v", err)
	}
	names := map[string]bool{}
	for _, sp := range ts.Spans {
		if sp.TraceID != parent.TraceID {
			t.Errorf("span %q carries trace %s, want %s", sp.Name, sp.TraceID, parent.TraceID)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"http.request", "simulate", "encode"} {
		if !names[want] {
			t.Errorf("trace dump is missing a %q span (have %v)", want, names)
		}
	}

	// An unrelated trace ID returns the empty set, not an error.
	other := getPath(h, "/debug/trace?trace="+stats.NewTraceID().String())
	if strings.TrimSpace(other.Body.String()) != `{"spans":[]}` {
		t.Errorf("unknown trace dump = %q, want the empty set", other.Body.String())
	}

	// A malformed ID is a 400, not a panic or an empty 200.
	if bad := getPath(h, "/debug/trace?trace=nope"); bad.Code != http.StatusBadRequest {
		t.Errorf("malformed trace ID status = %d, want 400", bad.Code)
	}
}

func TestTracingDisabled(t *testing.T) {
	s := NewServer(Options{TraceCapacity: -1})
	s.simulate = fastSim
	h := s.Handler()
	if s.tracer != nil {
		t.Fatal("TraceCapacity<0 must disable the tracer")
	}
	if rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`); rec.Code != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", rec.Code, rec.Body)
	}
	rec := getPath(h, "/debug/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d", rec.Code)
	}
	if strings.TrimSpace(rec.Body.String()) != `{"traceEvents":[]}` {
		t.Errorf("disabled trace = %q, want the empty document", rec.Body.String())
	}
	// Disabled tracing propagates nothing: no response traceparent, and the
	// by-ID pull path answers the empty set.
	if got := rec.Header().Get(stats.TraceparentHeader); got != "" {
		t.Errorf("disabled tracing echoed a traceparent %q", got)
	}
	byID := getPath(h, "/debug/trace?trace="+stats.NewTraceID().String())
	if strings.TrimSpace(byID.Body.String()) != `{"spans":[]}` {
		t.Errorf("disabled by-ID dump = %q, want the empty set", byID.Body.String())
	}
}
