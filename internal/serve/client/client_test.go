package client

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcor/internal/serve"
	"tcor/internal/stats"
)

// newTestServer starts a real serving stack (default simulator, full
// middleware) and a client pointed at it.
func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *Client) {
	t.Helper()
	s := serve.NewServer(opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, New(srv.URL, srv.Client())
}

func TestSimulateWithInvariantCheck(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	rr, _, err := c.Simulate(context.Background(),
		serve.SimulateRequest{Benchmark: "GTr", Frames: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Benchmark != "GTr" || rr.Config != "tcor" || rr.Frames != 1 {
		t.Fatalf("result header = %s/%s/%d frames, want GTr/tcor/1", rr.Benchmark, rr.Config, rr.Frames)
	}
	if len(rr.Counters) == 0 {
		t.Fatal("result carries no hierarchy counters")
	}
	if rr.Counters["sim.frames"] != 1 {
		t.Fatalf("sim.frames counter = %d, want 1", rr.Counters["sim.frames"])
	}
}

func TestSimulateInlineSpec(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	rr, _, err := c.Simulate(context.Background(), serve.SimulateRequest{
		Spec: []byte(`{"name":"My Game","alias":"MyG","pbFootprintMiB":0.2,
			"avgPrimReuse":4.0,"textureMiB":1.0,"shaderInstrPerPixel":5,"frames":1}`),
		Config: "baseline",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Benchmark != "MyG" || rr.Config != "baseline" {
		t.Fatalf("result header = %s/%s, want MyG/baseline", rr.Benchmark, rr.Config)
	}
}

func TestSweepMatchesSimulate(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	items := []serve.SimulateRequest{
		{Benchmark: "GTr", Config: "baseline", Frames: 1},
		{Benchmark: "GTr", Config: "tcor", Frames: 1},
	}
	runs, err := c.Sweep(context.Background(), serve.SweepRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("sweep returned %d runs, want 2", len(runs))
	}
	for i, item := range items {
		single, _, err := c.Simulate(context.Background(), item)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i].Config != item.Config {
			t.Fatalf("run %d is %s, want item order preserved (%s)", i, runs[i].Config, item.Config)
		}
		if runs[i].MemReads != single.MemReads || runs[i].PPC != single.PPC {
			t.Fatalf("sweep run %d differs from the equivalent simulate call", i)
		}
	}
}

func TestClientPlumbing(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	ctx := context.Background()
	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("Healthy: %v", err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	info, err := c.Version(ctx)
	if err != nil {
		t.Fatalf("Version: %v", err)
	}
	if info.Version == "" || info.GoVersion == "" {
		t.Fatalf("Version returned an incomplete identity: %+v", info)
	}
	bms, err := c.Benchmarks(ctx)
	if err != nil {
		t.Fatalf("Benchmarks: %v", err)
	}
	if len(bms) != 10 || bms[0].Alias != "CCS" {
		t.Fatalf("Benchmarks returned %d entries starting with %q, want the Table II suite", len(bms), bms[0].Alias)
	}
	if _, _, err := c.Simulate(ctx, serve.SimulateRequest{Benchmark: "GTr", Frames: 1}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if snap["serve.cache.misses"] != 1 {
		t.Fatalf("serve.cache.misses = %d, want 1", snap["serve.cache.misses"])
	}
}

func TestClientErrorMapping(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	_, _, err := c.Simulate(context.Background(), serve.SimulateRequest{Benchmark: "nope"})
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("error = %T %v, want *APIError", err, err)
	}
	if ae.Status != http.StatusBadRequest || ae.Code != "invalid_request" {
		t.Fatalf("APIError = %+v, want 400 invalid_request", ae)
	}
	if ae.IsRetryable() {
		t.Fatal("a validation error must not be retryable")
	}
}

func TestAPIErrorCarriesRequestID(t *testing.T) {
	// The server mints an X-Request-Id for every response; a failed call
	// must surface it so the client's error is greppable in the daemon log.
	_, c := newTestServer(t, serve.Options{})
	_, _, err := c.Simulate(context.Background(), serve.SimulateRequest{Benchmark: "nope"})
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("error = %T %v, want *APIError", err, err)
	}
	if ae.RequestID == "" {
		t.Fatal("APIError.RequestID is empty")
	}
	if !strings.Contains(ae.Error(), ae.RequestID) {
		t.Fatalf("Error() %q does not mention request ID %q", ae.Error(), ae.RequestID)
	}
}

// TestCacheProbe pins the peer-aware lookup contract: a probe never makes
// the server compute — an uncached key answers (found=false, err=nil) — and
// a cached key returns the exact served bytes.
func TestCacheProbe(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	req := serve.SimulateRequest{Benchmark: "GTr", Config: "tcor", TileCacheKB: 64, Frames: 1}

	body, how, found, err := c.CacheProbe(context.Background(), req)
	if err != nil {
		t.Fatalf("probe of an uncached key errored: %v", err)
	}
	if found || body != nil || how != "" {
		t.Fatalf("probe of an uncached key = (%q, %q, %v), want a clean miss", body, how, found)
	}

	served, _, err := c.SimulateRaw(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	body, how, found, err = c.CacheProbe(context.Background(), req)
	if err != nil || !found {
		t.Fatalf("probe after a simulate = (found=%v, err=%v), want a hit", found, err)
	}
	if how != "hit" {
		t.Fatalf("probe outcome %q, want hit", how)
	}
	if !bytes.Equal(body, served) {
		t.Fatalf("probe body differs from the served body:\nprobe:  %s\nserved: %s", body, served)
	}
}

// TestSweepRawRoundTrips pins the merge primitive the gateway is built on:
// SweepRaw's elements re-assembled into a SweepResponse encode to the same
// bytes the decoded-and-compared Sweep method observes item by item.
func TestSweepRawRoundTrips(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	req := serve.SweepRequest{Items: []serve.SimulateRequest{
		{Benchmark: "GTr", Config: "tcor", TileCacheKB: 32, Frames: 1},
		{Benchmark: "GTr", Config: "baseline", TileCacheKB: 32, Frames: 1},
	}}
	raws, err := c.SweepRaw(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 2 {
		t.Fatalf("SweepRaw returned %d runs, want 2", len(raws))
	}
	for i, raw := range raws {
		var rr serve.RunResult
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatalf("run %d does not decode: %v", i, err)
		}
		if rr.Benchmark != "GTr" {
			t.Fatalf("run %d benchmark %q, want GTr", i, rr.Benchmark)
		}
	}
}

// TestClientForwardsRequestID: a context carrying a correlation ID (as the
// gateway's proxied calls do) reaches the origin server's handler intact.
func TestClientForwardsRequestID(t *testing.T) {
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(serve.RequestIDHeader)
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()
	c := New(srv.URL, srv.Client())
	ctx := serve.ContextWithRequestID(context.Background(), "gw-abc123")
	if err := c.Healthy(ctx); err != nil {
		t.Fatal(err)
	}
	if got != "gw-abc123" {
		t.Fatalf("server saw request ID %q, want the context's gw-abc123", got)
	}
}

// TestClientInjectsTraceparent: the active span's trace identity rides
// every outbound request, and without a live span no header is set.
func TestClientInjectsTraceparent(t *testing.T) {
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(stats.TraceparentHeader)
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := New(srv.URL, srv.Client())

	if err := c.Healthy(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "" {
		t.Fatalf("no-span request carried traceparent %q", got)
	}

	tr := stats.NewTracer(8)
	sp := tr.Begin("caller", "test")
	defer sp.End()
	ctx := stats.ContextWithSpan(context.Background(), sp)
	if err := c.Healthy(ctx); err != nil {
		t.Fatal(err)
	}
	tc, err := stats.ParseTraceparent(got)
	if err != nil {
		t.Fatalf("injected traceparent %q: %v", got, err)
	}
	if want := sp.Context(); tc != want {
		t.Fatalf("injected context %+v, want the span's %+v", tc, want)
	}
}

// TestWithMetricsPrefix: per-shard client instrumentation lands under the
// caller's prefix so a gateway can meter each upstream separately.
func TestWithMetricsPrefix(t *testing.T) {
	reg := stats.NewRegistry()
	_, c := newTestServer(t, serve.Options{})
	c = New(c.BaseURL(), nil, WithMetricsPrefix(reg, "shard0"))
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Get("shard0.attempts"); got != 1 {
		t.Fatalf("shard0.attempts = %d, want 1", got)
	}
	if got := snap.Get("shard0.retries"); got != 0 {
		t.Fatalf("shard0.retries = %d, want 0", got)
	}
}
