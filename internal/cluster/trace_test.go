package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/stats"
)

// getStitched polls GET /v1/cluster/trace/<id> until ready(doc) holds and
// two consecutive fetches return identical bytes. Spans land in each
// process's tracer just after the response that created them is flushed,
// so the set settles moments after the traced request returns; the
// two-fetch equality doubles as the determinism check — stitching the same
// span sets twice must be byte-identical.
func getStitched(t *testing.T, gwURL, id string, ready func(clusterTraceDoc) bool) (http.Header, []byte) {
	t.Helper()
	var prev []byte
	prevOK := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(gwURL + "/v1/cluster/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stitched trace: status %d: %s", resp.StatusCode, body)
		}
		var doc clusterTraceDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decoding stitched export: %v\n%s", err, body)
		}
		ok := ready == nil || ready(doc)
		if ok && prevOK && bytes.Equal(prev, body) {
			return resp.Header, body
		}
		prev, prevOK = body, ok
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("stitched trace never stabilized")
	return nil, nil
}

// pidsWithSpans returns the set of pids contributing at least one span
// ("X" event) to the export.
func pidsWithSpans(doc clusterTraceDoc) map[int]bool {
	pids := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
		}
	}
	return pids
}

// TestStitchedSweepTraceGolden is the trace collector's contract: one
// fanned-out sweep yields ONE stitched export with a track per
// participating process, every shard's root span hanging off the gateway
// gw.subsweep span that issued its sub-sweep, causally ordered, and the
// whole document byte-stable across repeated stitches.
func TestStitchedSweepTraceGolden(t *testing.T) {
	rc := newRealCluster(t, 3, serve.Options{}, Options{})
	sweep := goldenSweep()
	status, hdr, body := post(t, rc.gwURL, "/v1/sweep", sweep)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, body)
	}
	tc, ok := stats.ExtractTraceparent(hdr)
	if !ok {
		t.Fatal("sweep response carries no traceparent header")
	}
	id := tc.TraceID.String()

	// Expected tracks: the gateway plus every shard owning a sweep item.
	wantPids := map[int]bool{0: true}
	for _, item := range sweep.Items {
		key, err := serve.CanonicalKey(item)
		if err != nil {
			t.Fatal(err)
		}
		wantPids[rc.gateway.Ring().Owner(key)+1] = true
	}

	ready := func(doc clusterTraceDoc) bool {
		got := pidsWithSpans(doc)
		for pid := range wantPids {
			if !got[pid] {
				return false
			}
		}
		return true
	}
	shdr, raw := getStitched(t, rc.gwURL, id, ready)
	if w := shdr.Get("Warning"); w != "" {
		t.Fatalf("complete stitch flagged partial: %q", w)
	}
	var doc clusterTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData["traceId"] != id {
		t.Fatalf("otherData.traceId = %q, want %q", doc.OtherData["traceId"], id)
	}
	for i := 0; i < 3; i++ {
		if st := doc.OtherData["shard-"+strconv.Itoa(i)]; st != "ok" {
			t.Fatalf("shard-%d collection status %q, want ok", i, st)
		}
	}

	procs := make(map[int]string)
	spans := make(map[int][]traceEvent)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			procs[ev.Pid] = ev.Args["name"]
			continue
		}
		spans[ev.Pid] = append(spans[ev.Pid], ev)
	}
	if procs[0] != "gateway" {
		t.Fatalf("pid 0 is named %q, want gateway", procs[0])
	}
	for pid := range wantPids {
		if pid == 0 {
			continue
		}
		if got, want := procs[pid], "shard-"+strconv.Itoa(pid-1); got != want {
			t.Errorf("pid %d track is named %q, want %q", pid, got, want)
		}
		if len(spans[pid]) == 0 {
			t.Errorf("shard-%d owns sweep items but contributed no spans", pid-1)
		}
	}

	// Gateway side: the sweep's root span, gw.subsweep children under it.
	gwName := make(map[string]string)
	gwTs := make(map[string]float64)
	var rootID string
	for _, ev := range spans[0] {
		gwName[ev.Args["spanId"]] = ev.Name
		gwTs[ev.Args["spanId"]] = ev.Ts
		if ev.Name == "http.request" && ev.Args["path"] == "/v1/sweep" {
			rootID = ev.Args["spanId"]
		}
	}
	if rootID == "" {
		t.Fatal("stitched export has no gateway root span for /v1/sweep")
	}
	subsweeps := 0
	for _, ev := range spans[0] {
		if ev.Name != "gw.subsweep" {
			continue
		}
		subsweeps++
		if ev.Args["parentSpanId"] != rootID {
			t.Errorf("gw.subsweep %s has parent %q, want the root %s",
				ev.Args["spanId"], ev.Args["parentSpanId"], rootID)
		}
	}
	if subsweeps == 0 {
		t.Fatal("stitched export has no gw.subsweep spans")
	}

	// Cross-process links: every shard http.request span hangs off a
	// gateway gw.subsweep span and never starts before it (skew-corrected).
	linked := 0
	for pid, evs := range spans {
		if pid == 0 {
			continue
		}
		for _, ev := range evs {
			if ev.Name != "http.request" {
				continue
			}
			parent := ev.Args["parentSpanId"]
			name, ok := gwName[parent]
			if !ok {
				t.Errorf("pid %d span %s: parent %q is not a gateway span",
					pid, ev.Args["spanId"], parent)
				continue
			}
			if name != "gw.subsweep" {
				t.Errorf("pid %d span %s hangs off %q, want gw.subsweep",
					pid, ev.Args["spanId"], name)
			}
			if ev.Ts < gwTs[parent] {
				t.Errorf("pid %d span %s starts %.1fus before its parent despite skew correction",
					pid, ev.Args["spanId"], gwTs[parent]-ev.Ts)
			}
			linked++
		}
	}
	if linked == 0 {
		t.Fatal("stitched export has no cross-process parent links")
	}

	// Byte stability: a further stitch of the same span sets is identical.
	resp, err := http.Get(rc.gwURL + "/v1/cluster/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	again, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("stitching the same trace twice produced different bytes")
	}
}

// attemptLog records the correlation headers each scripted shard observed,
// keyed by shard URL.
type attemptLog struct {
	mu  sync.Mutex
	ids map[string][]string // X-Request-Id per attempt
	tps map[string][]string // traceparent per attempt
}

func newAttemptLog() *attemptLog {
	return &attemptLog{ids: make(map[string][]string), tps: make(map[string][]string)}
}

func (l *attemptLog) record(u string, r *http.Request) {
	l.mu.Lock()
	l.ids[u] = append(l.ids[u], r.Header.Get(serve.RequestIDHeader))
	l.tps[u] = append(l.tps[u], r.Header.Get(stats.TraceparentHeader))
	l.mu.Unlock()
}

// waitFor blocks until shard u has observed at least n attempts (the
// abandoned side of a hedge is recorded on its handler's way in, a moment
// after the winner's response already returned).
func (l *attemptLog) waitFor(t *testing.T, u string, n int) (ids, tps []string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		if len(l.ids[u]) >= n {
			ids = append([]string(nil), l.ids[u]...)
			tps = append([]string(nil), l.tps[u]...)
			l.mu.Unlock()
			return ids, tps
		}
		l.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shard %s never saw %d attempt(s)", u, n)
	return nil, nil
}

func postSimWithHeaders(t *testing.T, url string, req serve.SimulateRequest, h http.Header) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, vs := range h {
		hreq.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// checkAttempts asserts every recorded attempt against shard u carried the
// caller's request ID and a child span of the response's trace, and
// returns the attempts' span IDs.
func checkAttempts(t *testing.T, u string, ids, tps []string, wantID string, root stats.TraceContext) []string {
	t.Helper()
	for _, id := range ids {
		if id != wantID {
			t.Errorf("shard %s saw request ID %q, want %q", u, id, wantID)
		}
	}
	var spanIDs []string
	for _, tp := range tps {
		tc, err := stats.ParseTraceparent(tp)
		if err != nil {
			t.Errorf("shard %s saw traceparent %q: %v", u, tp, err)
			continue
		}
		if tc.TraceID != root.TraceID {
			t.Errorf("shard %s attempt is on trace %s, want %s", u, tc.TraceID, root.TraceID)
		}
		if tc.SpanID == root.SpanID {
			t.Errorf("shard %s attempt reused the root span ID; want one child span per attempt", u)
		}
		spanIDs = append(spanIDs, tc.SpanID.String())
	}
	return spanIDs
}

// TestRequestIDAndTraceSurviveHedgeAndFailover: the caller's X-Request-Id
// rides along on every upstream attempt — the winner, the abandoned hedge
// loser and the failover chain's probes included — and each attempt
// carries its own child span of the request's one trace.
func TestRequestIDAndTraceSurviveHedgeAndFailover(t *testing.T) {
	t.Run("hedge", func(t *testing.T) {
		fc := newFakeCluster(t, 2)
		opts := singleAttempt()
		opts.HedgeAfter = 20 * time.Millisecond
		g, srv := newTestGateway(t, fc, opts)
		order := ownerOf(t, g, testSim)
		log := newAttemptLog()
		fc.setRole(order[0], func(w http.ResponseWriter, r *http.Request) {
			log.record(order[0], r)
			time.Sleep(400 * time.Millisecond)
			answer("{\"from\":\"slow\"}\n", "miss")(w, r)
		})
		fc.setRole(order[1], func(w http.ResponseWriter, r *http.Request) {
			log.record(order[1], r)
			answer("{\"from\":\"fast\"}\n", "hit")(w, r)
		})

		const rid = "ride-along-7"
		resp := postSimWithHeaders(t, srv.URL, testSim,
			http.Header{serve.RequestIDHeader: []string{rid}})
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hedged request: status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get(serve.RequestIDHeader); got != rid {
			t.Fatalf("response echoes request ID %q, want %q", got, rid)
		}
		root, ok := stats.ExtractTraceparent(resp.Header)
		if !ok {
			t.Fatal("response carries no traceparent")
		}

		var spanIDs []string
		for _, u := range order {
			ids, tps := log.waitFor(t, u, 1)
			spanIDs = append(spanIDs, checkAttempts(t, u, ids, tps, rid, root)...)
		}
		if len(spanIDs) == 2 && spanIDs[0] == spanIDs[1] {
			t.Error("hedged attempts share one span ID; want a distinct child span per attempt")
		}
	})

	t.Run("failover", func(t *testing.T) {
		fc := newFakeCluster(t, 2)
		g, srv := newTestGateway(t, fc, singleAttempt())
		order := ownerOf(t, g, testSim)
		log := newAttemptLog()
		fc.setRole(order[0], func(w http.ResponseWriter, r *http.Request) {
			log.record(order[0], r)
			fail(http.StatusInternalServerError, "internal")(w, r)
		})
		fc.setRole(order[1], func(w http.ResponseWriter, r *http.Request) {
			log.record(order[1], r)
			answer("{\"from\":\"recomputed\"}\n", "miss")(w, r)
		})

		const rid = "ride-along-8"
		resp := postSimWithHeaders(t, srv.URL, testSim,
			http.Header{serve.RequestIDHeader: []string{rid}})
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("failover request: status %d: %s", resp.StatusCode, body)
		}
		root, ok := stats.ExtractTraceparent(resp.Header)
		if !ok {
			t.Fatal("response carries no traceparent")
		}

		// The owner sees two requests — the failed attempt and the failover
		// path's cache probe — the successor one; each under the same ID and
		// trace.
		ids, tps := log.waitFor(t, order[0], 2)
		checkAttempts(t, order[0], ids, tps, rid, root)
		ids, tps = log.waitFor(t, order[1], 1)
		checkAttempts(t, order[1], ids, tps, rid, root)
	})
}

// emptyTraceRole wraps a scripted shard handler so /debug/trace answers a
// valid empty span set (fake shards have no tracer to dump).
func emptyTraceRole(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/debug/trace") {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, "{\"spans\":[]}\n")
			return
		}
		next(w, r)
	}
}

// TestStitchedHedgeLoserCancelled: the losing side of a hedge — abandoned
// when the winner's response came back — shows up in the stitched export
// as a gw.attempt span with outcome=cancelled, next to the hedged winner's
// outcome=ok span.
func TestStitchedHedgeLoserCancelled(t *testing.T) {
	fc := newFakeCluster(t, 2)
	opts := singleAttempt()
	opts.HedgeAfter = 20 * time.Millisecond
	g, srv := newTestGateway(t, fc, opts)
	order := ownerOf(t, g, testSim)
	fc.setRole(order[0], emptyTraceRole(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		answer("{\"from\":\"slow\"}\n", "miss")(w, r)
	}))
	fc.setRole(order[1], emptyTraceRole(answer("{\"from\":\"fast\"}\n", "hit")))

	resp := postSim(t, srv.URL, testSim)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: status %d: %s", resp.StatusCode, body)
	}
	tc, ok := stats.ExtractTraceparent(resp.Header)
	if !ok {
		t.Fatal("response carries no traceparent")
	}

	// The loser's span only lands once route cancels the race context.
	ready := func(doc clusterTraceDoc) bool {
		for _, ev := range doc.TraceEvents {
			if ev.Name == "gw.attempt" && ev.Args["outcome"] == "cancelled" {
				return true
			}
		}
		return false
	}
	_, raw := getStitched(t, srv.URL, tc.TraceID.String(), ready)
	var doc clusterTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var cancelled, hedgedWin bool
	for _, ev := range doc.TraceEvents {
		if ev.Name != "gw.attempt" {
			continue
		}
		switch ev.Args["outcome"] {
		case "cancelled":
			if ev.Args["hedged"] == "true" {
				t.Error("the hedge target was cancelled; expected the slow owner to lose")
			}
			cancelled = true
		case "ok":
			if ev.Args["hedged"] == "true" {
				hedgedWin = true
			}
		}
	}
	if !cancelled || !hedgedWin {
		t.Fatalf("stitched export: cancelled loser=%v, hedged winner=%v; want both", cancelled, hedgedWin)
	}
	_ = g
}

// TestStitchedChaosHedgeExport is the acceptance scenario end to end:
// three real shards under latency chaos behind a hedging gateway, and the
// first hedged request whose loser was cancelled yields one stitched
// export carrying the cancelled gw.attempt span plus linked spans from
// more than one process.
func TestStitchedChaosHedgeExport(t *testing.T) {
	shardOpts := func(seed int64) serve.Options {
		inj := resilience.NewInjector(seed)
		inj.Arm(resilience.SiteHTTP, resilience.FaultPlan{Rate: 0.4, Latency: 300 * time.Millisecond})
		return serve.Options{Chaos: inj}
	}
	var urls []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(serve.NewServer(shardOpts(int64(7 + i))).Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	g, err := NewGateway(Options{
		Shards:     urls,
		HedgeAfter: 25 * time.Millisecond,
		Retry:      &resilience.RetryPolicy{MaxAttempts: 1},
		// The latency faults are on purpose; keep breakers out of the way.
		Breaker: &resilience.BreakerConfig{Window: 64, MinSamples: 64, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	var traceID string
	var lastHedges int64
	for i := 0; i < 60 && traceID == ""; i++ {
		req := testSim
		req.TileCacheKB = 32 + i
		resp := postSim(t, gwSrv.URL, req)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d under latency chaos: %s", i, resp.StatusCode, body)
		}
		tc, ok := stats.ExtractTraceparent(resp.Header)
		if !ok {
			t.Fatal("response carries no traceparent")
		}
		hedges := g.Registry().Snapshot().Get("gw.hedges")
		if hedges == lastHedges {
			continue // no hedge fired for this request
		}
		lastHedges = hedges
		// A hedge fired: wait briefly for the abandoned side's span.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) && traceID == "" {
			for _, s := range g.tracer.TraceSpans(tc.TraceID) {
				if s.Name == "gw.attempt" && s.Attrs["outcome"] == "cancelled" {
					traceID = tc.TraceID.String()
					break
				}
			}
			if traceID == "" {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	if traceID == "" {
		t.Fatal("60 requests under 40% latency chaos never produced a cancelled hedge loser")
	}

	ready := func(doc clusterTraceDoc) bool {
		cancelled := false
		for _, ev := range doc.TraceEvents {
			if ev.Name == "gw.attempt" && ev.Args["outcome"] == "cancelled" {
				cancelled = true
			}
		}
		return cancelled && len(pidsWithSpans(doc)) >= 2
	}
	_, raw := getStitched(t, gwSrv.URL, traceID, ready)
	var doc clusterTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}

	gwAttempts := make(map[string]bool) // spanId -> is gw.attempt, pid 0
	cancelled := false
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 0 || ev.Ph != "X" {
			continue
		}
		if ev.Name == "gw.attempt" {
			gwAttempts[ev.Args["spanId"]] = true
			if ev.Args["outcome"] == "cancelled" {
				cancelled = true
			}
		}
	}
	if !cancelled {
		t.Fatal("stitched export lost the cancelled hedge-loser span")
	}
	if got := len(pidsWithSpans(doc)); got < 2 {
		t.Fatalf("stitched export has %d process tracks, want the gateway plus at least one shard", got)
	}
	linked := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Pid == 0 || ev.Name != "http.request" {
			continue
		}
		if gwAttempts[ev.Args["parentSpanId"]] {
			linked++
		}
	}
	if linked == 0 {
		t.Fatal("no shard span links back to a gateway gw.attempt span")
	}
}
