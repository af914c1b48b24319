package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tcor/internal/resilience"
	"tcor/internal/serve"
)

// realCluster stands up n full serving stacks (admission, cache, worker
// pool — the same code path cmd/tcord runs) plus a gateway over them.
type realCluster struct {
	gateway  *Gateway
	gwURL    string
	shardURL []string
	servers  []*httptest.Server
}

func newRealCluster(t *testing.T, n int, shardOpts serve.Options, gwOpts Options) *realCluster {
	t.Helper()
	rc := &realCluster{}
	for i := 0; i < n; i++ {
		s := serve.NewServer(shardOpts)
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		rc.servers = append(rc.servers, srv)
		rc.shardURL = append(rc.shardURL, srv.URL)
	}
	gwOpts.Shards = rc.shardURL
	g, err := NewGateway(gwOpts)
	if err != nil {
		t.Fatal(err)
	}
	rc.gateway = g
	gwSrv := httptest.NewServer(g.Handler())
	t.Cleanup(gwSrv.Close)
	rc.gwURL = gwSrv.URL
	return rc
}

// goldenSweep is the reference workload: every item is cheap (1 frame)
// but the batch spans benchmarks, configurations and cache sizes, so the
// items spread across the ring.
func goldenSweep() serve.SweepRequest {
	var items []serve.SimulateRequest
	for _, alias := range []string{"CCS", "SoD", "GTr"} {
		for _, cfg := range []string{"baseline", "tcor"} {
			for _, kb := range []int{32, 64} {
				items = append(items, serve.SimulateRequest{
					Benchmark: alias, Config: cfg, TileCacheKB: kb, Frames: 1,
				})
			}
		}
	}
	return serve.SweepRequest{Items: items}
}

func post(t *testing.T, url, path string, v any) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestGoldenGatewayMatchesSingleNode is the cluster's fidelity contract:
// a sweep fanned across three shards and merged by the gateway is
// byte-identical to the same sweep served by one standalone daemon, and
// so is every individual simulation.
func TestGoldenGatewayMatchesSingleNode(t *testing.T) {
	single := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer single.Close()
	rc := newRealCluster(t, 3, serve.Options{}, Options{})

	sweep := goldenSweep()
	wantStatus, _, want := post(t, single.URL, "/v1/sweep", sweep)
	if wantStatus != http.StatusOK {
		t.Fatalf("single-node sweep: status %d: %s", wantStatus, want)
	}
	gotStatus, _, got := post(t, rc.gwURL, "/v1/sweep", sweep)
	if gotStatus != http.StatusOK {
		t.Fatalf("gateway sweep: status %d: %s", gotStatus, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("gateway sweep differs from single-node:\ngateway: %s\nsingle:  %s", got, want)
	}

	// Individual simulations pass through verbatim too, whichever shard
	// owns them.
	for _, item := range sweep.Items[:4] {
		_, _, want := post(t, single.URL, "/v1/simulate", item)
		gotStatus, hdr, got := post(t, rc.gwURL, "/v1/simulate", item)
		if gotStatus != http.StatusOK {
			t.Fatalf("gateway simulate: status %d: %s", gotStatus, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("gateway simulate differs from single-node for %+v", item)
		}
		if hdr.Get(serve.ShardHeader) == "" {
			t.Fatal("gateway response does not name its shard")
		}
	}
}

// TestGoldenSweepSurvivesDeadShard: with one of three shards already
// dead, the sweep still merges byte-identical to a single node — the
// dead shard's items fail over to the ring successors.
func TestGoldenSweepSurvivesDeadShard(t *testing.T) {
	single := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer single.Close()
	// Single client-side attempt so the dead shard costs one refused
	// connection, not a retry storm.
	rc := newRealCluster(t, 3, serve.Options{}, Options{
		Retry: &resilience.RetryPolicy{MaxAttempts: 1},
	})

	rc.servers[1].CloseClientConnections()
	rc.servers[1].Close()

	sweep := goldenSweep()
	_, _, want := post(t, single.URL, "/v1/sweep", sweep)
	gotStatus, _, got := post(t, rc.gwURL, "/v1/sweep", sweep)
	if gotStatus != http.StatusOK {
		t.Fatalf("sweep with a dead shard: status %d: %s", gotStatus, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep with a dead shard differs from single-node:\ngateway: %s\nsingle:  %s", got, want)
	}
	if err := rc.gateway.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenSweepSurvivesMidSweepKill kills a shard while the sweep is in
// flight. Whatever the timing — before its sub-sweep starts, mid-item, or
// after it finished — the caller sees a complete, byte-identical
// response.
func TestGoldenSweepSurvivesMidSweepKill(t *testing.T) {
	single := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer single.Close()
	rc := newRealCluster(t, 3, serve.Options{Workers: 1}, Options{
		Retry: &resilience.RetryPolicy{MaxAttempts: 1},
	})

	sweep := goldenSweep()
	_, _, want := post(t, single.URL, "/v1/sweep", sweep)

	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		status, _, body := post(t, rc.gwURL, "/v1/sweep", sweep)
		done <- result{status, body}
	}()
	// Give the fan-out a moment to be genuinely in flight, then kill one
	// shard hard: open connections die mid-response.
	time.Sleep(30 * time.Millisecond)
	rc.servers[2].CloseClientConnections()
	rc.servers[2].Close()

	res := <-done
	if res.status != http.StatusOK {
		t.Fatalf("sweep with a mid-sweep kill: status %d: %s", res.status, res.body)
	}
	if !bytes.Equal(res.body, want) {
		t.Fatalf("sweep with a mid-sweep kill differs from single-node:\ngateway: %s\nsingle:  %s", res.body, want)
	}
	if err := rc.gateway.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenSimulateChaosShards: every shard running with an armed fault
// injector (latency + 500s at the HTTP and simulate sites) behind a
// retrying, failing-over gateway still yields zero caller-visible
// failures and byte-identical bodies.
func TestGoldenSimulateChaosShards(t *testing.T) {
	single := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer single.Close()

	shardOpts := func(seed int64) serve.Options {
		inj := resilience.NewInjector(seed)
		inj.Arm(resilience.SiteHTTP, resilience.FaultPlan{Rate: 0.2, Codes: []int{500, 503}})
		return serve.Options{Chaos: inj}
	}
	var rc realCluster
	for i := 0; i < 3; i++ {
		s := serve.NewServer(shardOpts(int64(100 + i)))
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		rc.servers = append(rc.servers, srv)
		rc.shardURL = append(rc.shardURL, srv.URL)
	}
	g, err := NewGateway(Options{
		Shards: rc.shardURL,
		Retry: &resilience.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		},
		// The shards inject 20% 500s on purpose; keep their breakers out
		// of the way so every request exercises retry + failover.
		Breaker: &resilience.BreakerConfig{Window: 64, MinSamples: 64, Cooldown: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	for i, item := range goldenSweep().Items {
		_, _, want := post(t, single.URL, "/v1/simulate", item)
		status, _, got := post(t, gwSrv.URL, "/v1/simulate", item)
		if status != http.StatusOK {
			t.Fatalf("item %d: status %d under shard chaos: %s", i, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("item %d: body differs from single-node under shard chaos", i)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenGatewayArenaMatchesSingleNode: a policy race proxied through
// the gateway is byte-identical to the same race on a standalone daemon,
// and a repeat is answered from the owning shard's arena cache.
func TestGoldenGatewayArenaMatchesSingleNode(t *testing.T) {
	single := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer single.Close()
	rc := newRealCluster(t, 3, serve.Options{}, Options{})

	req := serve.ArenaRequest{
		Policies:   []string{"LRU", "OPT", "ARC"},
		Benchmarks: []string{"CCS"},
		SizeKB:     16,
	}
	wantStatus, _, want := post(t, single.URL, "/v1/arena", req)
	if wantStatus != http.StatusOK {
		t.Fatalf("single-node arena: status %d: %s", wantStatus, want)
	}
	gotStatus, hdr, got := post(t, rc.gwURL, "/v1/arena", req)
	if gotStatus != http.StatusOK {
		t.Fatalf("gateway arena: status %d: %s", gotStatus, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("gateway arena differs from single-node:\ngateway: %s\nsingle:  %s", got, want)
	}
	if hdr.Get(serve.ShardHeader) == "" {
		t.Fatal("gateway arena response does not name its shard")
	}

	status2, hdr2, got2 := post(t, rc.gwURL, "/v1/arena", req)
	if status2 != http.StatusOK {
		t.Fatalf("repeat arena: status %d", status2)
	}
	if hdr2.Get("X-Tcord-Cache") != "hit" {
		t.Fatalf("repeat arena disposition = %q, want hit", hdr2.Get("X-Tcord-Cache"))
	}
	if !bytes.Equal(got2, got) {
		t.Fatal("repeat arena served different bytes")
	}
	if err := rc.gateway.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// send issues one raw request and returns its status, headers and body.
func send(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestGoldenGatewayRejectsLikeSingleNode: a malformed request gets the same
// status, body and Allow header from the gateway as from a standalone
// daemon — both tiers answer it through the one request shell.
func TestGoldenGatewayRejectsLikeSingleNode(t *testing.T) {
	single := httptest.NewServer(serve.NewServer(serve.Options{}).Handler())
	defer single.Close()
	rc := newRealCluster(t, 2, serve.Options{}, Options{})

	endpoints := []struct{ path, body string }{
		{"/v1/simulate", `{"benchmark":"CCS","frames":1}`},
		{"/v1/sweep", `{"items":[{"benchmark":"CCS","frames":1}]}`},
		{"/v1/arena", `{"policies":["LRU"],"benchmarks":["CCS"],"sizeKB":16}`},
	}
	tooBig := strings.Repeat("x", 1<<20+1) // one byte over the default MaxBodyBytes
	for _, ep := range endpoints {
		path, body := ep.path, ep.body
		cases := []struct {
			name, method, body string
			status             int
		}{
			{"trailing content", http.MethodPost, body + `{"x":1}`, http.StatusBadRequest},
			{"unknown field", http.MethodPost, `{"nope":1}`, http.StatusBadRequest},
			{"empty body", http.MethodPost, "", http.StatusBadRequest},
			{"body too large", http.MethodPost, tooBig, http.StatusRequestEntityTooLarge},
			{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed},
		}
		for _, tc := range cases {
			t.Run(strings.TrimPrefix(path, "/v1/")+"/"+tc.name, func(t *testing.T) {
				wantStatus, wantHdr, want := send(t, tc.method, single.URL+path, tc.body)
				gotStatus, gotHdr, got := send(t, tc.method, rc.gwURL+path, tc.body)
				if wantStatus != tc.status {
					t.Fatalf("single node answered %d, want %d: %s", wantStatus, tc.status, want)
				}
				if gotStatus != wantStatus || !bytes.Equal(got, want) {
					t.Fatalf("gateway answered %d %s, single node %d %s", gotStatus, got, wantStatus, want)
				}
				if g, w := gotHdr.Get("Allow"), wantHdr.Get("Allow"); g != w {
					t.Fatalf("gateway Allow = %q, single node Allow = %q", g, w)
				}
			})
		}
	}
}

// TestEveryRouteSetsAllowOn405 sends the wrong method to every route either
// tier registers: a route that serves fixed methods answers 405 naming them
// in Allow (RFC 9110 §15.5.6), and a route that serves any method never
// answers 405.
func TestEveryRouteSetsAllowOn405(t *testing.T) {
	shardSrv := httptest.NewServer(serve.NewServer(serve.Options{JobsDir: t.TempDir()}).Handler())
	defer shardSrv.Close()
	g, err := NewGateway(Options{Shards: []string{shardSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	// path, wrong method, Allow ("" = the route serves every method).
	type route struct{ path, method, allow string }
	common := []route{
		{"/healthz", http.MethodPost, ""},
		{"/readyz", http.MethodPost, ""},
		{"/metrics", http.MethodPost, ""},
		{"/v1/version", http.MethodPost, "GET"},
		{"/v1/benchmarks", http.MethodPost, "GET"},
		{"/v1/stats", http.MethodPost, "GET"},
		{"/debug/trace", http.MethodPost, "GET"},
		{"/v1/simulate", http.MethodGet, "POST"},
		{"/v1/sweep", http.MethodGet, "POST"},
		{"/v1/arena", http.MethodGet, "POST"},
		{"/v1/jobs", http.MethodPost, "GET"},
		{"/v1/jobs/0123abcd", http.MethodPost, "GET, DELETE"},
	}
	tiers := []struct {
		name   string
		url    string
		routes []route
	}{
		{"shard", shardSrv.URL, common},
		{"gateway", gwSrv.URL, append(common[:len(common):len(common)],
			route{"/v1/ring", http.MethodPost, "GET"},
			route{"/v1/cluster/trace/0123456789abcdef0123456789abcdef", http.MethodPost, "GET"},
			route{"/v1/cluster/metrics", http.MethodPost, "GET"},
			route{"/v1/cluster/health", http.MethodPost, "GET"},
		)},
	}
	for _, tier := range tiers {
		for _, rt := range tier.routes {
			t.Run(tier.name+rt.path, func(t *testing.T) {
				status, hdr, body := send(t, rt.method, tier.url+rt.path, "")
				if rt.allow == "" {
					if status == http.StatusMethodNotAllowed {
						t.Fatalf("%s %s answered 405: %s", rt.method, rt.path, body)
					}
					return
				}
				if status != http.StatusMethodNotAllowed {
					t.Fatalf("%s %s answered %d, want 405: %s", rt.method, rt.path, status, body)
				}
				if got := hdr.Get("Allow"); got != rt.allow {
					t.Fatalf("%s %s: Allow = %q, want %q", rt.method, rt.path, got, rt.allow)
				}
			})
		}
	}
}
