package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tcor/internal/gpu"
	"tcor/internal/workload"
)

// postJSON drives one request through the full middleware stack.
func postJSON(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getPath(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// blockingSim returns a simulate hook that parks every call on release and
// signals each arrival on started.
func blockingSim(started chan string, release chan struct{}) func(context.Context, *workload.Scene, gpu.Config) (*gpu.Result, error) {
	return func(ctx context.Context, scene *workload.Scene, cfg gpu.Config) (*gpu.Result, error) {
		started <- scene.Spec.Alias
		select {
		case <-release:
			return &gpu.Result{Benchmark: scene.Spec.Alias, Frames: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestValidationErrors(t *testing.T) {
	s := NewServer(Options{})
	h := s.Handler()
	cases := []struct {
		name, body string
		wantStatus int
		wantIn     string
	}{
		{"no workload", `{}`, 400, "one of benchmark or spec"},
		{"both workloads", `{"benchmark":"CCS","spec":{"alias":"X"}}`, 400, "mutually exclusive"},
		{"unknown benchmark", `{"benchmark":"nope"}`, 400, "unknown benchmark"},
		{"unknown config", `{"benchmark":"CCS","config":"fast"}`, 400, "unknown config"},
		{"unknown field", `{"benchmark":"CCS","turbo":true}`, 400, "unknown field"},
		{"negative frames", `{"benchmark":"CCS","frames":-1}`, 400, "frames"},
		{"negative size", `{"benchmark":"CCS","tileCacheKB":-4}`, 400, "tileCacheKB"},
		{"over frame limit", `{"benchmark":"CCS","frames":1000}`, 400, "server limit"},
		{"trailing garbage", `{"benchmark":"CCS"} {}`, 400, "trailing"},
		{"not json", `hello`, 400, "decoding request"},
		// Generate sizes its frames from the footprint target, so an
		// unbounded one must be a 400 before any allocation.
		{"unbounded footprint", `{"spec":{"alias":"Big","pbFootprintMiB":1e9,"avgPrimReuse":2}}`, 400, "PB footprint"},
		{"negative texture", `{"spec":{"alias":"Tex","pbFootprintMiB":0.1,"avgPrimReuse":2,"textureMiB":-1}}`, 400, "texture footprint"},
		{"negative shader", `{"spec":{"alias":"Shd","pbFootprintMiB":0.1,"avgPrimReuse":2,"shaderInstrPerPixel":-4}}`, 400, "shader length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(h, "/v1/simulate", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body)
			}
			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v", err)
			}
			if !strings.Contains(eb.Error.Message, tc.wantIn) {
				t.Fatalf("error %q does not mention %q", eb.Error.Message, tc.wantIn)
			}
		})
	}
}

func TestRequestSizeLimit(t *testing.T) {
	s := NewServer(Options{})
	rec := postJSON(s.Handler(), "/v1/simulate",
		`{"benchmark":"CCS","spec":`+strings.Repeat(" ", DefaultMaxBodyBytes+1)+`}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := NewServer(Options{Workers: 1, QueueDepth: 1})
	s.simulate = blockingSim(started, release)
	h := s.Handler()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	// Distinct sizes give distinct content keys, so nothing coalesces.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postJSON(h, "/v1/simulate",
				fmt.Sprintf(`{"benchmark":"CCS","tileCacheKB":%d}`, 64+i))
			codes[i] = rec.Code
		}(i)
	}
	<-started // the first request holds the only worker
	// Wait until exactly one request is queued behind it.
	waitFor(t, func() bool {
		return s.reg.Snapshot().Get("serve.queue.depth") == 1
	})

	// Worker busy, queue full: the next distinct request must bounce.
	rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","tileCacheKB":128}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 response is missing Retry-After")
	}
	var eb ErrorBody
	if json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error.Code != "queue_full" {
		t.Fatalf("error code = %q, want queue_full", eb.Error.Code)
	}

	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d, want 200", i, code)
		}
	}
	snap := s.reg.Snapshot()
	if got := snap.Get("serve.rejected.queueFull"); got != 1 {
		t.Fatalf("serve.rejected.queueFull = %d, want 1", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("serving-layer invariants: %v", err)
	}
}

func TestSingleflightCollapsesIdenticalRequests(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := NewServer(Options{Workers: 4, QueueDepth: 16})
	s.simulate = blockingSim(started, release)
	h := s.Handler()

	const n = 6
	var wg sync.WaitGroup
	bodies := make([]string, n)
	outcomes := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postJSON(h, "/v1/simulate", `{"benchmark":"GTr","frames":1}`)
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status %d (body %s)", i, rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.String()
			outcomes[i] = rec.Header().Get("X-Tcord-Cache")
		}(i)
	}
	<-started // one leader is simulating...
	waitFor(t, func() bool {
		return s.reg.Snapshot().Get("serve.cache.coalesced") == n-1
	})
	select {
	case alias := <-started:
		t.Fatalf("a second simulation of %s started; identical requests must collapse", alias)
	default:
	}
	close(release)
	wg.Wait()

	miss, hits := 0, 0
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatal("coalesced requests served different bodies")
		}
	}
	for _, o := range outcomes {
		switch o {
		case "miss":
			miss++
		case "coalesced":
			hits++
		}
	}
	if miss != 1 || hits != n-1 {
		t.Fatalf("outcomes = %v, want 1 miss and %d coalesced", outcomes, n-1)
	}
	snap := s.reg.Snapshot()
	if got := snap.Get("serve.simulations.completed"); got != 1 {
		t.Fatalf("serve.simulations.completed = %d, want 1 (singleflight)", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("serving-layer invariants: %v", err)
	}
}

func TestCancellationPropagatesToSimulationContext(t *testing.T) {
	simCtxDone := make(chan error, 1)
	s := NewServer(Options{Workers: 1})
	s.simulate = func(ctx context.Context, _ *workload.Scene, _ gpu.Config) (*gpu.Result, error) {
		<-ctx.Done() // park until the request context ends
		simCtxDone <- ctx.Err()
		return nil, ctx.Err()
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/simulate",
		strings.NewReader(`{"benchmark":"GTr","frames":1}`))
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	waitFor(t, func() bool {
		return s.reg.Snapshot().Get("serve.inflight") == 1
	})
	cancel()
	select {
	case err := <-simCtxDone:
		if err != context.Canceled {
			t.Fatalf("simulation context ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceling the request did not cancel the simulation context")
	}
	if err := <-errCh; err == nil {
		t.Fatal("client call succeeded despite cancellation")
	}
	// A canceled run must not be cached.
	if got := s.cache.len(); got != 0 {
		t.Fatalf("cache holds %d entries after a canceled run, want 0", got)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := NewServer(Options{Workers: 1})
	s.simulate = blockingSim(started, release)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/simulate", "application/json",
			strings.NewReader(`{"benchmark":"GTr","frames":1}`))
		if err != nil {
			t.Error(err)
			respCh <- nil
			return
		}
		respCh <- resp
	}()
	<-started // the request is inside the simulator

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.draining.Load() })
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a simulation was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release) // let the drain finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want a clean drain", err)
	}
	resp := <-respCh
	if resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request was not drained to completion: %+v", resp)
	}
	resp.Body.Close()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("serving-layer invariants after drain: %v", err)
	}
}

func TestDrainingRefusesNewSimulations(t *testing.T) {
	s := NewServer(Options{})
	// Handler-only server: Shutdown just flips the drain flag.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := getPath(h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d while draining, want 503", rec.Code)
	}
	if rec := getPath(h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d while draining, want 200 (the process is alive)", rec.Code)
	}
	rec := postJSON(h, "/v1/simulate", `{"benchmark":"GTr"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("simulate while draining = %d, want 503", rec.Code)
	}
}

func TestPanicIsolation(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	s.simulate = func(_ context.Context, scene *workload.Scene, _ gpu.Config) (*gpu.Result, error) {
		if scene.Spec.Alias == "CCS" {
			panic("boom")
		}
		return &gpu.Result{Benchmark: scene.Spec.Alias, Frames: 1}, nil
	}
	h := s.Handler()
	rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500", rec.Code)
	}
	if got := s.reg.Snapshot().Get("serve.panics"); got != 1 {
		t.Fatalf("serve.panics = %d, want 1", got)
	}
	// The daemon survives: the next request (different key) is served.
	rec = postJSON(h, "/v1/simulate", `{"benchmark":"GTr","frames":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after a panic = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
	// The panicked key is not cached poisoned: retrying still fails afresh
	// rather than serving a stale error or hanging.
	rec = postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("retried panicking request = %d, want 500", rec.Code)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	s := NewServer(Options{Workers: 2, CacheEntries: 1})
	s.simulate = func(_ context.Context, scene *workload.Scene, _ gpu.Config) (*gpu.Result, error) {
		return &gpu.Result{Benchmark: scene.Spec.Alias, Frames: 1}, nil
	}
	h := s.Handler()
	post := func(kb int, wantOutcome string) {
		t.Helper()
		rec := postJSON(h, "/v1/simulate", fmt.Sprintf(`{"benchmark":"GTr","tileCacheKB":%d}`, kb))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Tcord-Cache"); got != wantOutcome {
			t.Fatalf("tileCacheKB=%d served as %q, want %q", kb, got, wantOutcome)
		}
	}
	post(64, "miss")
	post(64, "hit")
	post(128, "miss") // capacity 1: evicts the 64 KiB entry
	post(64, "miss")  // ...so it recomputes
	snap := s.reg.Snapshot()
	if got := snap.Get("serve.cache.evictions"); got != 2 {
		t.Fatalf("serve.cache.evictions = %d, want 2", got)
	}
	if got := snap.Get("serve.cache.size"); got != 1 {
		t.Fatalf("serve.cache.size = %d, want the capacity bound 1", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("serving-layer invariants: %v", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
