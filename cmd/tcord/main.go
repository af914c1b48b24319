// Command tcord is the simulation daemon: it serves the TBR GPU model over
// a versioned JSON HTTP API so repeated studies share one process, one
// result cache and one admission policy instead of shelling into tcorsim
// per run.
//
// Usage:
//
//	tcord                                  # serve on :8344
//	tcord -addr 127.0.0.1:9000 -workers 4 -queue 16
//	tcord -debug :8345                     # /metrics + pprof on a side listener
//	tcord -chaos "rate=0.1,lat=50ms,codes=500|503,seed=7"  # fault injection
//	tcord -shards host:8344,host:8345      # gateway over shard daemons
//	tcord -tenants tenants.json            # multi-tenant QoS roster
//	tcord -jobs-dir /var/lib/tcord/jobs    # durable async jobs (?async=1)
//	tcord -version
//
// With -shards the process is a cluster gateway instead of a simulation
// daemon: it serves the same API, routes each simulation to the shard
// owning its content address on a consistent-hash ring, hedges slow
// requests onto the next replica, and fans sweeps out as per-shard
// sub-sweeps merged byte-identically. In gateway mode -chaos arms the
// proxy site (gw.proxy): injected faults abort upstream attempts and are
// absorbed by failover.
//
// Endpoints:
//
//	POST /v1/simulate   run (or fetch from cache) one simulation
//	POST /v1/sweep      run a batch through the bounded worker pool
//	POST /v1/arena      race a replacement-policy roster, ranked vs OPT
//	GET  /v1/jobs       durable async jobs (-jobs-dir): list, poll, cancel,
//	                    fetch results; submissions are ?async=1 on the POSTs
//	GET  /v1/benchmarks list the built-in Table II suite
//	GET  /v1/version    build identity (module version, VCS revision)
//	GET  /v1/stats      serving-layer metrics snapshot
//	GET  /healthz       liveness        GET /readyz  readiness (503 draining)
//
// The daemon drains gracefully on SIGINT/SIGTERM: readiness flips to 503,
// queued and in-flight simulations finish (bounded by -drain), then the
// process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tcor/internal/buildinfo"
	"tcor/internal/cluster"
	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/stats"
)

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "tcord:", err)
		}
		os.Exit(2)
	}
	if opts.version {
		fmt.Println(buildinfo.Get())
		return
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "tcord:", err)
		os.Exit(1)
	}
}

// options is the parsed and validated command line.
type options struct {
	addr      string
	debugAddr string
	workers   int
	queue     int
	cache     int
	timeout   time.Duration
	drain     time.Duration
	logFormat string
	traceCap  int
	version   bool

	chaos     string
	chaosPlan resilience.FaultPlan
	chaosSeed int64
	breaker   bool
	cacheTTL  time.Duration
	maxStale  time.Duration

	shards []string
	vnodes int
	hedge  time.Duration

	tenantsPath string
	tenants     *serve.TenantSet
	jobsDir     string
	jobWorkers  int
}

// parseOptions parses args into options and enforces the flag rules; every
// rejection is a clear error rather than a silently clamped value.
func parseOptions(args []string, errOut io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("tcord", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.addr, "addr", ":8344", "API listen address (host:port; :0 picks a free port)")
	fs.StringVar(&o.debugAddr, "debug", "", "serve /metrics and pprof on this address (e.g. :8345; empty = off)")
	fs.IntVar(&o.workers, "workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 64, "max requests waiting for a worker before 429s (0 = reject when all workers busy)")
	fs.IntVar(&o.cache, "cache", 256, "result cache capacity in entries, LRU-evicted (0 = unbounded)")
	fs.DurationVar(&o.timeout, "timeout", time.Minute, "default per-request deadline")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "graceful-shutdown drain budget")
	fs.StringVar(&o.logFormat, "log", "text", "access/lifecycle log format: text, json or off")
	fs.IntVar(&o.traceCap, "trace-spans", 4096, "span capacity of GET /debug/trace; on a gateway also sizes the buffer behind /v1/cluster/trace (0 = tracing off)")
	fs.StringVar(&o.chaos, "chaos", "", `inject faults into requests, e.g. "rate=0.1,lat=50ms,codes=500|503,seed=7" (empty = off)`)
	fs.BoolVar(&o.breaker, "breaker", true, "guard the simulation path with a circuit breaker (503 + stale cache when open)")
	fs.DurationVar(&o.cacheTTL, "cache-ttl", 0, "result-cache entry freshness bound (0 = fresh forever)")
	fs.DurationVar(&o.maxStale, "max-stale", time.Hour, "how far past -cache-ttl an entry may be served while the breaker is open (0 = never)")
	fs.BoolVar(&o.version, "version", false, "print the build identity and exit")
	var shards string
	fs.StringVar(&shards, "shards", "", "run as a cluster gateway over these shard daemons (comma-separated host:port or http://host:port; empty = serve simulations directly)")
	fs.IntVar(&o.vnodes, "vnodes", 0, "virtual nodes per shard on the gateway's consistent-hash ring (0 = 64)")
	fs.DurationVar(&o.hedge, "hedge", 0, "gateway hedge delay before duplicating a slow request to the next shard (0 = adaptive p99, negative = off)")
	fs.StringVar(&o.tenantsPath, "tenants", "", `multi-tenant roster JSON file: {"api-key": {"name", "weight", "maxInflight", "maxQueued", "cacheShare"}, ...}; "*" names the anonymous tenant (empty = one anonymous tenant owning the machine)`)
	fs.StringVar(&o.jobsDir, "jobs-dir", "", "directory for durable async jobs: ?async=1 submissions persist their progress under it and resume after a restart (empty = async requests answer 400)")
	fs.IntVar(&o.jobWorkers, "job-workers", 0, "max concurrently executing background jobs (0 = half of -workers, min 1)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if o.workers < 0 {
		return options{}, fmt.Errorf("-workers must be non-negative, got %d", o.workers)
	}
	if o.queue < 0 {
		return options{}, fmt.Errorf("-queue must be non-negative, got %d", o.queue)
	}
	if o.cache < 0 {
		return options{}, fmt.Errorf("-cache must be non-negative, got %d", o.cache)
	}
	if o.timeout <= 0 {
		return options{}, fmt.Errorf("-timeout must be positive, got %v", o.timeout)
	}
	if o.drain <= 0 {
		return options{}, fmt.Errorf("-drain must be positive, got %v", o.drain)
	}
	switch o.logFormat {
	case "text", "json", "off":
	default:
		return options{}, fmt.Errorf("-log must be text, json or off, got %q", o.logFormat)
	}
	if o.traceCap < 0 {
		return options{}, fmt.Errorf("-trace-spans must be non-negative, got %d", o.traceCap)
	}
	if o.chaos != "" {
		plan, seed, err := resilience.ParsePlan(o.chaos)
		if err != nil {
			return options{}, err
		}
		o.chaosPlan, o.chaosSeed = plan, seed
	}
	if o.cacheTTL < 0 {
		return options{}, fmt.Errorf("-cache-ttl must be non-negative, got %v", o.cacheTTL)
	}
	if o.maxStale < 0 {
		return options{}, fmt.Errorf("-max-stale must be non-negative, got %v", o.maxStale)
	}
	if shards != "" {
		for _, sh := range strings.Split(shards, ",") {
			sh = strings.TrimSpace(sh)
			if sh == "" {
				return options{}, fmt.Errorf("-shards has an empty entry")
			}
			if !strings.Contains(sh, "://") {
				sh = "http://" + sh
			}
			o.shards = append(o.shards, sh)
		}
	}
	if o.vnodes < 0 {
		return options{}, fmt.Errorf("-vnodes must be non-negative, got %d", o.vnodes)
	}
	if len(o.shards) == 0 && (o.vnodes != 0 || o.hedge != 0) {
		return options{}, fmt.Errorf("-vnodes and -hedge only apply in gateway mode (-shards)")
	}
	if o.jobWorkers < 0 {
		return options{}, fmt.Errorf("-job-workers must be non-negative, got %d", o.jobWorkers)
	}
	if o.jobWorkers != 0 && o.jobsDir == "" {
		return options{}, fmt.Errorf("-job-workers needs -jobs-dir")
	}
	if len(o.shards) > 0 && (o.tenantsPath != "" || o.jobsDir != "" || o.jobWorkers != 0) {
		// The gateway forwards credentials and routes jobs to shards; the
		// roster and the store live on the shards themselves.
		return options{}, fmt.Errorf("-tenants, -jobs-dir and -job-workers only apply in daemon mode (without -shards)")
	}
	if o.tenantsPath != "" {
		data, err := os.ReadFile(o.tenantsPath)
		if err != nil {
			return options{}, fmt.Errorf("-tenants: %w", err)
		}
		ts, err := serve.ParseTenants(data)
		if err != nil {
			return options{}, fmt.Errorf("-tenants %s: %w", o.tenantsPath, err)
		}
		o.tenants = ts
	}
	return o, nil
}

// newLogger builds the daemon's structured logger from the -log flag.
func newLogger(format string) *slog.Logger {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
		return slog.New(slog.DiscardHandler)
	default:
		return slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
}

// serveOptions maps the command line onto the server configuration.
// QueueDepth/CacheEntries/TraceCapacity use -1 for "explicitly zero"
// because the Options zero value means "default".
func serveOptions(o options) serve.Options {
	so := serve.Options{
		Workers:        o.workers,
		QueueDepth:     o.queue,
		CacheEntries:   o.cache,
		DefaultTimeout: o.timeout,
		TraceCapacity:  o.traceCap,
		Logger:         newLogger(o.logFormat),
		CacheTTL:       o.cacheTTL,
		MaxStale:       o.maxStale,
		Tenants:        o.tenants,
		JobsDir:        o.jobsDir,
		JobWorkers:     o.jobWorkers,
	}
	if o.queue == 0 {
		so.QueueDepth = -1
	}
	if o.cache == 0 {
		so.CacheEntries = -1
	}
	if o.traceCap == 0 {
		so.TraceCapacity = -1
	}
	if o.chaos != "" {
		// The daemon registry meters the injector, so chaos.* counters show
		// up in /v1/stats and /metrics next to what they perturb. Only the
		// HTTP site is armed from the flag; the simulate/sweep sites are
		// test hooks.
		so.Registry = stats.NewRegistry()
		inj := resilience.NewInjector(o.chaosSeed).Meter(so.Registry)
		inj.Arm(resilience.SiteHTTP, o.chaosPlan)
		so.Chaos = inj
	}
	if o.breaker {
		so.Breaker = &resilience.BreakerConfig{}
	}
	return so
}

// gatewayOptions maps the command line onto the gateway configuration.
func gatewayOptions(o options) cluster.Options {
	co := cluster.Options{
		Shards:        o.shards,
		VNodes:        o.vnodes,
		HedgeAfter:    o.hedge,
		TraceCapacity: o.traceCap,
		Logger:        newLogger(o.logFormat),
	}
	if o.traceCap == 0 {
		co.TraceCapacity = -1
	}
	if o.chaos != "" {
		co.Registry = stats.NewRegistry()
		inj := resilience.NewInjector(o.chaosSeed).Meter(co.Registry)
		inj.Arm(resilience.SiteProxy, o.chaosPlan)
		co.Chaos = inj
	}
	return co
}

// runGateway is run for gateway mode: same lifecycle (debug server,
// signal-driven drain, invariant check at exit) around a cluster.Gateway.
func runGateway(o options) error {
	gw, err := cluster.NewGateway(gatewayOptions(o))
	if err != nil {
		return err
	}
	if o.debugAddr != "" {
		addr, stop, err := stats.ServeDebug(o.debugAddr, "tcord", gw.Registry())
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "tcord: debug server on http://%s/metrics\n", addr)
	}
	addr, err := gw.Start(o.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tcord: %s\n", buildinfo.Get())
	fmt.Fprintf(os.Stderr, "tcord: gateway on http://%s over %d shards\n", addr, len(o.shards))
	if o.chaos != "" {
		fmt.Fprintf(os.Stderr, "tcord: CHAOS MODE armed (%s) at the proxy site\n", o.chaos)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "tcord: received %v, draining (budget %v)\n", got, o.drain)

	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := gw.CheckInvariants(); err != nil {
		return fmt.Errorf("gateway invariants violated at shutdown: %w", err)
	}
	return nil
}

func run(o options) error {
	if len(o.shards) > 0 {
		return runGateway(o)
	}
	srv := serve.NewServer(serveOptions(o))
	if err := srv.JobsInitError(); err != nil {
		// A daemon asked for durable jobs must not run silently degraded:
		// an operator who set -jobs-dir is owed crash-surviving jobs, not a
		// 503 discovered at the first async submission.
		return fmt.Errorf("durable job store (-jobs-dir %s): %w", o.jobsDir, err)
	}

	if o.debugAddr != "" {
		addr, stop, err := stats.ServeDebug(o.debugAddr, "tcord", srv.Registry())
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "tcord: debug server on http://%s/metrics\n", addr)
	}

	addr, err := srv.Start(o.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tcord: %s\n", buildinfo.Get())
	fmt.Fprintf(os.Stderr, "tcord: serving on http://%s\n", addr)
	if o.tenants != nil {
		fmt.Fprintf(os.Stderr, "tcord: %d tenants loaded from %s\n", len(o.tenants.Tenants()), o.tenantsPath)
	}
	if o.jobsDir != "" {
		fmt.Fprintf(os.Stderr, "tcord: durable jobs under %s\n", o.jobsDir)
	}
	if o.chaos != "" {
		fmt.Fprintf(os.Stderr, "tcord: CHAOS MODE armed (%s) — responses include injected faults\n", o.chaos)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "tcord: received %v, draining (budget %v)\n", got, o.drain)

	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := srv.CheckInvariants(); err != nil {
		return fmt.Errorf("serving-layer invariants violated at shutdown: %w", err)
	}
	return nil
}
