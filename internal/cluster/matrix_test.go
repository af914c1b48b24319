package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tcor/internal/arena"
	"tcor/internal/experiments"
	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/workload"
)

// matrixRow is one request of the determinism matrix.
type matrixRow struct {
	name string
	path string
	body any
	// library is the row's direct encoding: the library call (or the
	// resolver's rejection) with no server in between.
	library func(t *testing.T) (int, []byte)
	// metered is what the daemon's first request computes, counter by
	// counter; the repeat computes nothing.
	metered map[string]int64
}

// matrixColumn is one surface a row is served through.
type matrixColumn struct {
	name string
	// async columns submit jobs, which /v1/simulate does not take.
	async bool
	serve func(t *testing.T, row matrixRow) (int, []byte)
}

// TestDeterminismMatrix is the system's determinism oracle. Every row (a
// simulate, sweep or arena request at frames 1, or one the resolver or a
// shard rejects) gets the same status and byte-identical body in every column:
// the library encoding, a single daemon on a miss and on a hit, a gateway
// over three shards, a gateway with one shard dead, and an async job on the
// daemon and through the gateway. The CLIs' rows are TestJSONMatchesDaemon
// (cmd/tcorsim) and TestArenaJSONMatchesDaemon (cmd/paperfig).
func TestDeterminismMatrix(t *testing.T) {
	daemon := serve.NewServer(serve.Options{JobsDir: t.TempDir()})
	single := httptest.NewServer(daemon.Handler())
	t.Cleanup(func() {
		single.Close()
		daemon.Shutdown(context.Background()) //nolint:errcheck // every job finished
	})
	live := newRealCluster(t, 3, serve.Options{JobsDir: t.TempDir()}, Options{})
	// One client-side attempt, so the dead shard costs one refused
	// connection per request instead of a retry storm.
	dead := newRealCluster(t, 3, serve.Options{}, Options{
		Retry: &resilience.RetryPolicy{MaxAttempts: 1},
	})

	sim := serve.SimulateRequest{Benchmark: "GTr", Config: "tcor", TileCacheKB: 64, Frames: 1}
	// The sweep's items miss the cache the simulate row fills.
	sweep := serve.SweepRequest{Items: []serve.SimulateRequest{
		{Benchmark: "GTr", Config: "baseline", TileCacheKB: 32, Frames: 1},
		{Benchmark: "GTr", Config: "tcor", TileCacheKB: 32, Frames: 1},
	}}
	race := serve.ArenaRequest{Policies: []string{"LRU", "OPT", "ARC"}, Benchmarks: []string{"GTr"}, SizeKB: 16}
	badSim := serve.SimulateRequest{Benchmark: "GTr", Config: "bogus", Frames: 1}
	badSweep := serve.SweepRequest{Items: append(sweep.Items[:2:2], serve.SimulateRequest{Benchmark: "nope", Frames: 1})}
	badRace := serve.ArenaRequest{Policies: []string{"nope"}, Benchmarks: []string{"GTr"}}
	// The gateway's resolver admits this spec; only a shard's generator
	// rejects it (the reuse exceeds the screen's tiles).
	farReuse := serve.SimulateRequest{Config: "tcor", Frames: 1,
		Spec: json.RawMessage(`{"alias":"Far","pbFootprintMiB":0.1,"avgPrimReuse":5000}`)}

	// The dead shard is the simulate row's owner, so that row fails over.
	key, err := serve.CanonicalKey(sim)
	if err != nil {
		t.Fatal(err)
	}
	victim := dead.servers[dead.gateway.Ring().Successors(key)[0]]
	victim.CloseClientConnections()
	victim.Close()

	rows := []matrixRow{
		{"simulate", "/v1/simulate", sim, func(t *testing.T) (int, []byte) {
			return http.StatusOK, libraryRun(t, sim)
		}, map[string]int64{"serve.simulations.completed": 1}},
		{"sweep", "/v1/sweep", sweep, func(t *testing.T) (int, []byte) {
			body, err := serve.EncodeSweep([][]byte{libraryRun(t, sweep.Items[0]), libraryRun(t, sweep.Items[1])})
			if err != nil {
				t.Fatal(err)
			}
			return http.StatusOK, body
		}, map[string]int64{"serve.simulations.completed": 2}},
		{"arena", "/v1/arena", race, func(t *testing.T) (int, []byte) {
			r := experiments.NewRunner()
			r.Frames = 1
			rep, err := arena.Race(context.Background(), r, arena.Options{
				Policies: race.Policies, Benchmarks: race.Benchmarks, SizeKB: race.SizeKB,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			body, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			return http.StatusOK, body
		}, map[string]int64{
			"serve.arena.races.completed":  1,
			"serve.arena.policy.lru.races": 1,
			"serve.arena.policy.opt.cells": 1,
		}},
		{"simulate unknown config", "/v1/simulate", badSim, func(t *testing.T) (int, []byte) {
			_, err := serve.CanonicalKey(badSim)
			return libraryError(t, err)
		}, nil},
		{"sweep item 2 invalid", "/v1/sweep", badSweep, func(t *testing.T) (int, []byte) {
			_, _, err := serve.ResolveSweep(badSweep, serve.MaxSweepItems, "server", serve.CanonicalKey)
			return libraryError(t, err)
		}, nil},
		{"arena unknown policy", "/v1/arena", badRace, func(t *testing.T) (int, []byte) {
			_, _, err := serve.ArenaKey(badRace)
			return libraryError(t, err)
		}, nil},
		{"simulate unreachable reuse", "/v1/simulate", farReuse, func(t *testing.T) (int, []byte) {
			spec, _, _, err := serve.Resolve(farReuse)
			if err != nil {
				t.Fatal(err)
			}
			_, err = workload.Generate(spec, geom.DefaultScreen())
			if err == nil {
				t.Fatal("the generator accepted an average reuse beyond the screen's tiles")
			}
			return libraryError(t, serve.BadRequest("generating workload: %v", err))
		}, nil},
	}

	// computed reads the daemon counters that any row meters.
	computed := func() map[string]int64 {
		snap := daemon.Registry().Snapshot()
		out := make(map[string]int64)
		for _, row := range rows {
			for name := range row.metered {
				out[name] = snap.Get(name)
			}
		}
		return out
	}
	onDaemon := func(metered bool) func(t *testing.T, row matrixRow) (int, []byte) {
		return func(t *testing.T, row matrixRow) (int, []byte) {
			before := computed()
			status, hdr, body := post(t, single.URL, row.path, row.body)
			after := computed()
			// Simulate and arena name their cache disposition; a sweep's
			// items each have their own.
			if status == http.StatusOK && row.path != "/v1/sweep" {
				want := map[bool]string{true: "miss", false: "hit"}[metered]
				if got := hdr.Get("X-Tcord-Cache"); got != want {
					t.Errorf("X-Tcord-Cache = %q, want %s", got, want)
				}
			}
			for name := range after {
				want := int64(0)
				if metered {
					want = row.metered[name]
				}
				if got := after[name] - before[name]; got != want {
					t.Errorf("%s grew by %d, want %d", name, got, want)
				}
			}
			return status, body
		}
	}
	at := func(url string) func(t *testing.T, row matrixRow) (int, []byte) {
		return func(t *testing.T, row matrixRow) (int, []byte) {
			status, _, body := post(t, url, row.path, row.body)
			return status, body
		}
	}
	asyncAt := func(url string) func(t *testing.T, row matrixRow) (int, []byte) {
		return func(t *testing.T, row matrixRow) (int, []byte) { return asyncResult(t, url, row) }
	}
	columns := []matrixColumn{
		{"daemon miss", false, onDaemon(true)},
		{"daemon hit", false, onDaemon(false)},
		{"gateway", false, at(live.gwURL)},
		{"gateway shard dead", false, at(dead.gwURL)},
		{"async daemon", true, asyncAt(single.URL)},
		{"async gateway", true, asyncAt(live.gwURL)},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			wantStatus, want := row.library(t)
			for _, col := range columns {
				t.Run(col.name, func(t *testing.T) {
					if col.async && row.path == "/v1/simulate" {
						t.Skip("/v1/simulate has no async form")
					}
					status, body := col.serve(t, row)
					if status != wantStatus || string(body) != string(want) {
						t.Errorf("%s via %s: %d %q\nlibrary: %d %q", row.name, col.name, status, body, wantStatus, want)
					}
				})
			}
		})
	}

	if got := dead.gateway.Registry().Snapshot().Get("gw.failovers"); got == 0 {
		t.Error("no request failed over from the dead shard")
	}
	// Every live shard is up and a shard's rejection is the answer, so
	// nothing fails over there.
	if got := live.gateway.Registry().Snapshot().Get("gw.failovers"); got != 0 {
		t.Errorf("live gateway: gw.failovers = %d, want 0", got)
	}
	for name, check := range map[string]func() error{
		"daemon":             daemon.CheckInvariants,
		"gateway":            live.gateway.CheckInvariants,
		"gateway shard dead": dead.gateway.CheckInvariants,
	} {
		if err := check(); err != nil {
			t.Errorf("%s invariants: %v", name, err)
		}
	}
}

// libraryRun is the library encoding of one simulate request: the
// daemon's resolver, the generator, the simulator and the run encoding,
// with no server in between.
func libraryRun(t *testing.T, req serve.SimulateRequest) []byte {
	t.Helper()
	spec, name, cfg, err := serve.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	scene, err := workload.Generate(spec, geom.DefaultScreen())
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpu.Simulate(scene, cfg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := serve.EncodeRunResult(serve.BuildRunResult(spec.Alias, name, cfg.TileCacheBytes/1024, res))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// libraryError is the wire form of a resolver's rejection: its status and
// the ErrorBody envelope.
func libraryError(t *testing.T, err error) (int, []byte) {
	t.Helper()
	var ae *serve.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("resolver error %v is not an APIError", err)
	}
	body, err := json.Marshal(serve.ErrorBody{Error: serve.ErrorDetail{Code: ae.Code, Message: ae.Message}})
	if err != nil {
		t.Fatal(err)
	}
	return ae.Status, append(body, '\n')
}

// asyncResult submits the row as an async job and, once the job is
// accepted, polls it to a terminal state and fetches its result. A
// rejected submission is the cell itself.
func asyncResult(t *testing.T, url string, row matrixRow) (int, []byte) {
	t.Helper()
	status, _, body := post(t, url, row.path+"?async=1", row.body)
	if status != http.StatusAccepted {
		return status, body
	}
	var jr serve.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		_, _, raw := send(t, http.MethodGet, url+"/v1/jobs/"+jr.Job.ID, "")
		if err := json.Unmarshal(raw, &jr); err != nil {
			t.Fatalf("job %s: %v: %s", jr.Job.ID, err, raw)
		}
		if s := jr.Job.State; s == serve.JobDone || s == serve.JobFailed || s == serve.JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", jr.Job.ID, jr.Job.State)
		}
	}
	status, _, body = send(t, http.MethodGet, url+"/v1/jobs/"+jr.Job.ID+"/result", "")
	return status, body
}
