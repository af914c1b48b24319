package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/stats"
)

// spanAttrs are the attributes the gateway's upstream routing sets on its
// spans; upstreamSpans renders only these.
var spanAttrs = []string{"shard", "attempt", "failover", "hedged", "items", "probeHit", "hit", "outcome"}

// upstreamSpans renders the gateway's upstream spans (every gw.* span) of
// the trace a response names, one "name key=value ..." line per span,
// sorted so concurrent attempts compare independent of start order.
func upstreamSpans(t *testing.T, g *Gateway, resp *http.Response) []string {
	t.Helper()
	tc, ok := stats.ExtractTraceparent(resp.Header)
	if !ok {
		t.Fatal("response carries no traceparent")
	}
	var lines []string
	for _, s := range g.tracer.TraceSpans(tc.TraceID) {
		if !strings.HasPrefix(s.Name, "gw.") {
			continue
		}
		line := s.Name
		for _, k := range spanAttrs {
			if v, ok := s.Attrs[k]; ok {
				line += " " + k + "=" + v
			}
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return lines
}

// shardName is the span label of the shard at ring index idx.
func shardName(idx int) string { return "shard-" + strconv.Itoa(idx) }

// TestGatewayUpstreamSpans pins the span every upstream try records at the
// gateway: its name, the shard it went to, its position in the ring walk,
// its failover/hedge marks, the probe and sub-sweep annotations and its
// outcome.
func TestGatewayUpstreamSpans(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) (*Gateway, *http.Response, []string)
	}{
		{"arena failover", func(t *testing.T) (*Gateway, *http.Response, []string) {
			fc := newFakeCluster(t, 2)
			g, srv := newTestGateway(t, fc, singleAttempt())
			_, key, err := serve.ArenaKey(testArena)
			if err != nil {
				t.Fatal(err)
			}
			order := g.Ring().Successors(key)
			fc.setRole(g.shards[order[0]].name, fail(http.StatusInternalServerError, "internal"))
			fc.setRole(g.shards[order[1]].name, answer("{}\n", "miss"))
			return g, postArena(t, srv.URL, testArena), []string{
				"gw.attempt shard=" + shardName(order[0]) + " attempt=0 outcome=error",
				"gw.attempt shard=" + shardName(order[1]) + " attempt=1 failover=true outcome=ok",
			}
		}},
		{"job lookup walk", func(t *testing.T) (*Gateway, *http.Response, []string) {
			fc := newFakeCluster(t, 2)
			g, srv := newTestGateway(t, fc, singleAttempt())
			const id = "f00dfeedf00dfeedf00dfeedf00dfeed"
			order := g.Ring().Successors(id)
			fc.setRole(g.shards[order[0]].name, jobShard(nil))
			fc.setRole(g.shards[order[1]].name, jobShard(map[string]serve.JobRecord{
				id: {ID: id, Kind: serve.JobKindSweep, State: serve.JobDone, CreatedAtMs: 42},
			}))
			resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			return g, resp, []string{
				"gw.job.proxy shard=" + shardName(order[0]) + " attempt=0 outcome=error",
				"gw.job.proxy shard=" + shardName(order[1]) + " attempt=1 failover=true outcome=ok",
			}
		}},
		{"job submit, owner down", func(t *testing.T) (*Gateway, *http.Response, []string) {
			fc := newFakeCluster(t, 2)
			g, srv := newTestGateway(t, fc, singleAttempt())
			body, err := json.Marshal(serve.SweepRequest{Items: []serve.SimulateRequest{testSim}})
			if err != nil {
				t.Fatal(err)
			}
			order := g.Ring().Successors(serve.JobID(serve.JobKindSweep, "", body))
			fc.setRole(g.shards[order[1]].name, jobShard(nil))
			fc.servers[order[0]].Close()
			resp, err := http.Post(srv.URL+"/v1/sweep?async=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			return g, resp, []string{
				"gw.job.submit shard=" + shardName(order[0]) + " attempt=0 outcome=error",
				"gw.job.submit shard=" + shardName(order[1]) + " attempt=1 failover=true outcome=ok",
			}
		}},
		{"sub-sweep", func(t *testing.T) (*Gateway, *http.Response, []string) {
			fc := newFakeCluster(t, 2)
			g, srv := newTestGateway(t, fc, singleAttempt())
			for _, u := range fc.urls {
				fc.setRole(u, func(w http.ResponseWriter, r *http.Request) {
					var req serve.SweepRequest
					json.NewDecoder(r.Body).Decode(&req)
					runs := make([]json.RawMessage, len(req.Items))
					for i := range runs {
						runs[i] = json.RawMessage("{}")
					}
					json.NewEncoder(w).Encode(serve.SweepResponse{Runs: runs})
				})
			}
			items := make([]serve.SimulateRequest, 5)
			perOwner := make(map[int]int)
			for i := range items {
				items[i] = testSim
				items[i].TileCacheKB = 16 << i
				key, err := serve.CanonicalKey(items[i])
				if err != nil {
					t.Fatal(err)
				}
				perOwner[g.Ring().Owner(key)]++
			}
			var want []string
			for idx, n := range perOwner {
				want = append(want, fmt.Sprintf("gw.subsweep shard=%s items=%d outcome=ok", shardName(idx), n))
			}
			body, err := json.Marshal(serve.SweepRequest{Items: items})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			return g, resp, want
		}},
		{"simulate failover with probe", func(t *testing.T) (*Gateway, *http.Response, []string) {
			fc := newFakeCluster(t, 2)
			g, srv := newTestGateway(t, fc, singleAttempt())
			key, err := serve.CanonicalKey(testSim)
			if err != nil {
				t.Fatal(err)
			}
			order := g.Ring().Successors(key)
			fc.setRole(g.shards[order[0]].name, func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get(serve.CacheOnlyHeader) != "" {
					answer("{}\n", "hit")(w, r)
					return
				}
				fail(http.StatusServiceUnavailable, "breaker_open")(w, r)
			})
			fc.setRole(g.shards[order[1]].name, answer("{}\n", "miss"))
			return g, postSim(t, srv.URL, testSim), []string{
				"gw.attempt shard=" + shardName(order[0]) + " attempt=0 outcome=error",
				"gw.attempt shard=" + shardName(order[1]) + " attempt=1 failover=true probeHit=true outcome=ok",
				"gw.probe shard=" + shardName(order[0]) + " hit=true",
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, resp, want := tc.run(t)
			body := readBody(t, resp)
			if resp.StatusCode/100 != 2 {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			sort.Strings(want)
			got := upstreamSpans(t, g, resp)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("gateway spans:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// TestGatewayFailoversCountRelaunches: gw.failovers counts the attempts
// launched because the previous attempt failed, the same way on every
// route. Three candidates that all fail make two failovers, whether the
// shards answer 500 or the gateway's own SiteProxy chaos aborts each try.
func TestGatewayFailoversCountRelaunches(t *testing.T) {
	const jobID = "f00dfeedf00dfeedf00dfeedf00dfeed"
	fleets := []struct {
		name string
		opts func() Options
	}{
		{"shards answer 500", singleAttempt},
		{"gateway chaos", func() Options {
			opts := singleAttempt()
			opts.Chaos = resilience.NewInjector(1)
			opts.Chaos.Arm(resilience.SiteProxy, resilience.FaultPlan{Rate: 1, Codes: []int{http.StatusServiceUnavailable}})
			return opts
		}},
	}
	for _, fleet := range fleets {
		t.Run(fleet.name, func(t *testing.T) {
			fc := newFakeCluster(t, 3)
			for _, u := range fc.urls {
				fc.setRole(u, fail(http.StatusInternalServerError, "internal"))
			}
			g, srv := newTestGateway(t, fc, fleet.opts())
			routes := []struct {
				name string
				do   func() *http.Response
			}{
				{"simulate", func() *http.Response { return postSim(t, srv.URL, testSim) }},
				{"arena", func() *http.Response { return postArena(t, srv.URL, testArena) }},
				{"job get", func() *http.Response {
					resp, err := http.Get(srv.URL + "/v1/jobs/" + jobID)
					if err != nil {
						t.Fatal(err)
					}
					return resp
				}},
			}
			for _, rt := range routes {
				before := g.Registry().Snapshot().Get("gw.failovers")
				resp := rt.do()
				body := readBody(t, resp)
				if resp.StatusCode < 500 {
					t.Fatalf("%s: status %d %q with every candidate failing", rt.name, resp.StatusCode, body)
				}
				if got := g.Registry().Snapshot().Get("gw.failovers") - before; got != 2 {
					t.Errorf("%s: gw.failovers grew by %d, want 2 (three candidates, two relaunches)", rt.name, got)
				}
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
