package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcor/internal/serve"
	"tcor/internal/serve/client"
)

func TestParseOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		bad  bool
	}{
		{"defaults", nil, false},
		{"full", []string{"-addr", ":0", "-debug", ":0", "-workers", "2",
			"-queue", "4", "-cache", "8", "-timeout", "5s", "-drain", "1s"}, false},
		{"version", []string{"-version"}, false},
		{"zero queue ok", []string{"-queue", "0"}, false},
		{"chaos plan", []string{"-chaos", "rate=0.2,lat=5ms,codes=500|503,seed=7"}, false},
		{"chaos bad rate", []string{"-chaos", "rate=1.5"}, true},
		{"chaos bad key", []string{"-chaos", "turbo=1"}, true},
		{"chaos bad code", []string{"-chaos", "codes=99"}, true},
		{"breaker off", []string{"-breaker=false"}, false},
		{"cache ttl", []string{"-cache-ttl", "1m", "-max-stale", "1h"}, false},
		{"negative cache ttl", []string{"-cache-ttl", "-1s"}, true},
		{"negative max stale", []string{"-max-stale", "-1s"}, true},
		{"negative workers", []string{"-workers", "-1"}, true},
		{"negative queue", []string{"-queue", "-1"}, true},
		{"negative cache", []string{"-cache", "-1"}, true},
		{"zero timeout", []string{"-timeout", "0"}, true},
		{"zero drain", []string{"-drain", "0"}, true},
		{"positional args", []string{"extra"}, true},
		{"unknown flag", []string{"-nope"}, true},
		{"gateway", []string{"-shards", "localhost:8344,localhost:8345"}, false},
		{"gateway with hedge", []string{"-shards", "localhost:8344", "-hedge", "100ms", "-vnodes", "32"}, false},
		{"gateway empty shard", []string{"-shards", "localhost:8344,,localhost:8345"}, true},
		{"hedge without shards", []string{"-hedge", "100ms"}, true},
		{"vnodes without shards", []string{"-vnodes", "32"}, true},
		{"negative vnodes", []string{"-shards", "localhost:8344", "-vnodes", "-1"}, true},
		{"jobs dir", []string{"-jobs-dir", "jobs"}, false},
		{"jobs dir with workers", []string{"-jobs-dir", "jobs", "-job-workers", "2"}, false},
		{"job workers without jobs dir", []string{"-job-workers", "2"}, true},
		{"negative job workers", []string{"-jobs-dir", "jobs", "-job-workers", "-1"}, true},
		{"tenants missing file", []string{"-tenants", "/nonexistent/tenants.json"}, true},
		{"tenants in gateway mode", []string{"-shards", "localhost:8344", "-tenants", "t.json"}, true},
		{"jobs dir in gateway mode", []string{"-shards", "localhost:8344", "-jobs-dir", "jobs"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args, io.Discard)
			if tc.bad && err == nil {
				t.Fatalf("parseOptions(%v) accepted, want an error", tc.args)
			}
			if !tc.bad && err != nil {
				t.Fatalf("parseOptions(%v) = %v, want success", tc.args, err)
			}
		})
	}
}

func TestServeOptionsMapping(t *testing.T) {
	o, err := parseOptions([]string{"-queue", "0", "-cache", "0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	so := serveOptions(o)
	if so.QueueDepth != -1 {
		t.Fatalf("QueueDepth = %d for -queue 0, want -1 (explicit no-queue)", so.QueueDepth)
	}
	if so.CacheEntries != -1 {
		t.Fatalf("CacheEntries = %d for -cache 0, want -1 (unbounded)", so.CacheEntries)
	}
	if so.Chaos != nil {
		t.Fatal("Chaos armed without -chaos")
	}
	if so.Breaker == nil {
		t.Fatal("Breaker off by default; -breaker defaults to true")
	}

	o, err = parseOptions([]string{"-chaos", "rate=0.1,seed=3", "-breaker=false",
		"-cache-ttl", "90s", "-max-stale", "2h"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	so = serveOptions(o)
	if so.Chaos == nil {
		t.Fatal("-chaos did not arm an injector")
	}
	if so.Registry == nil {
		t.Fatal("-chaos must supply a registry so chaos counters surface in /v1/stats")
	}
	if so.Breaker != nil {
		t.Fatal("-breaker=false still configured a breaker")
	}
	if so.CacheTTL != 90*time.Second || so.MaxStale != 2*time.Hour {
		t.Fatalf("cache freshness mapped as (%v, %v), want (90s, 2h)", so.CacheTTL, so.MaxStale)
	}
}

// TestTenantsFlag pins the -tenants contract: a valid roster file loads and
// rides into serve.Options together with the job flags; a misconfigured one
// refuses to start the daemon instead of silently degrading.
func TestTenantsFlag(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(good, []byte(`{
		"key-a": {"name": "alpha", "weight": 3, "maxInflight": 2},
		"*":     {"name": "default", "weight": 1}
	}`), 0o600); err != nil {
		t.Fatal(err)
	}
	o, err := parseOptions([]string{"-tenants", good, "-jobs-dir", filepath.Join(dir, "jobs"), "-job-workers", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.tenants == nil || o.tenants.TotalWeight() != 4 {
		t.Fatalf("roster did not load: %+v", o.tenants)
	}
	so := serveOptions(o)
	if so.Tenants != o.tenants || so.JobsDir != o.jobsDir || so.JobWorkers != 2 {
		t.Fatalf("tenancy/jobs flags did not map into serve.Options: %+v", so)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"k": {"name": "a", "weight": 0}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := parseOptions([]string{"-tenants", bad}, io.Discard); err == nil {
		t.Fatal("a zero-weight tenant roster was accepted")
	}
}

// TestShardNormalization pins the -shards address forms: bare host:port
// gains the http scheme, explicit URLs pass through.
func TestShardNormalization(t *testing.T) {
	o, err := parseOptions([]string{"-shards", "localhost:8344, https://other:9000 ,10.0.0.1:80"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://localhost:8344", "https://other:9000", "http://10.0.0.1:80"}
	if len(o.shards) != len(want) {
		t.Fatalf("parsed %d shards, want %d", len(o.shards), len(want))
	}
	for i := range want {
		if o.shards[i] != want[i] {
			t.Fatalf("shard %d = %q, want %q", i, o.shards[i], want[i])
		}
	}
	co := gatewayOptions(o)
	if len(co.Shards) != 3 {
		t.Fatalf("gatewayOptions carries %d shards, want 3", len(co.Shards))
	}
}

// TestDaemonEndToEnd exercises the daemon's serving stack in process: start
// on a free port, simulate through the typed client, drain.
func TestDaemonEndToEnd(t *testing.T) {
	o, err := parseOptions([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serveOptions(o))
	addr, err := srv.Start(o.addr)
	if err != nil {
		t.Fatal(err)
	}
	c := client.New("http://"+addr, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	rr, _, err := c.Simulate(ctx, serve.SimulateRequest{Benchmark: "GTr", Frames: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Benchmark != "GTr" {
		t.Fatalf("served benchmark = %q, want GTr", rr.Benchmark)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("serving-layer invariants at shutdown: %v", err)
	}
}

// TestReadmeExamplesParse keeps the README's `go run ./cmd/tcord` lines
// runnable: each one's flags must parse. A `tenants.json` argument is the
// roster the README prints with `$ cat tenants.json`, so that loads too.
func TestReadmeExamplesParse(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, roster, _ := strings.Cut(string(data), "$ cat tenants.json\n")
	roster, _, _ = strings.Cut(roster, "\n$ ")
	tenants := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(tenants, []byte(roster), 0o600); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		_, rest, ok := strings.Cut(line, "go run ./cmd/tcord ")
		if !ok {
			continue
		}
		rest, _, _ = strings.Cut(rest, "#")
		lines = append(lines, strings.TrimSuffix(strings.TrimSpace(rest), "&"))
	}
	if len(lines) == 0 {
		t.Fatal("README has no `go run ./cmd/tcord` lines")
	}
	for _, line := range lines {
		args := strings.Fields(line)
		for i, a := range args {
			args[i] = strings.Trim(a, `"'`)
			if args[i] == "tenants.json" {
				args[i] = tenants
			}
		}
		if _, err := parseOptions(args, io.Discard); err != nil {
			t.Errorf("README: tcord %s: %v", line, err)
		}
	}
}
