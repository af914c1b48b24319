// Package tcor is the public facade of the TCOR reproduction: a Tile Cache
// with Optimal Replacement for mobile tile-based-rendering GPUs (Joseph,
// Aragón, Parcerisa, González — HPCA 2022), together with the full TBR GPU
// model, workload suite and experiment harness the paper's evaluation
// needs.
//
// The implementation lives under internal/; this package re-exports the
// stable entry points a downstream user composes:
//
//   - workload synthesis (the Table II suite or custom JSON profiles),
//   - full-system simulation under the baseline or TCOR hierarchies,
//   - the trace-driven cache library with the OPT yardstick,
//   - the per-figure experiment harness.
//
// Quick start:
//
//	scene, _ := tcor.GenerateWorkload(tcor.BenchmarkSpec("CCS"), tcor.DefaultScreen())
//	base, _ := tcor.Simulate(scene, tcor.BaselineConfig(64<<10))
//	opt, _ := tcor.Simulate(scene, tcor.TCORConfig(64<<10))
//	fmt.Println(base.PPC(), opt.PPC())
package tcor

import (
	"context"
	"net/http"

	"tcor/internal/cache"
	"tcor/internal/cluster"
	"tcor/internal/experiments"
	"tcor/internal/geom"
	"tcor/internal/geometry"
	"tcor/internal/gpu"
	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/serve/client"
	"tcor/internal/trace"
	"tcor/internal/workload"
)

// Re-exported core types. The aliases keep the full method sets and let
// callers mix facade calls with the internal packages' documentation.
type (
	// Screen is the render target and tile grid (Table I: 1960x768, 32x32).
	Screen = geom.Screen
	// Spec is a workload profile (Table II row or custom).
	Spec = workload.Spec
	// Scene is a generated multi-frame workload.
	Scene = workload.Scene
	// Config is a full-system GPU configuration.
	Config = gpu.Config
	// Result carries a simulation's metrics (traffic, energy, throughput).
	Result = gpu.Result
	// Trace is a cache access stream.
	Trace = trace.Trace
	// CachePolicy is a replacement policy for the trace-driven cache model.
	CachePolicy = cache.Policy
	// CacheConfig is the trace-driven cache geometry.
	CacheConfig = cache.Config
	// CacheStats is the trace-driven cache statistics.
	CacheStats = cache.Stats
	// Runner memoizes scenes and simulations across experiments.
	Runner = experiments.Runner
	// Scene3D is a 3D scene for the Geometry Pipeline front end.
	Scene3D = geometry.Scene
	// Server is the production simulation service behind cmd/tcord: the
	// versioned HTTP API with admission control, a content-addressed
	// result cache and graceful lifecycle.
	Server = serve.Server
	// ServeOptions configures a Server (workers, queue depth, cache size,
	// deadlines, request limits).
	ServeOptions = serve.Options
	// ServiceClient is the typed HTTP client for a running tcord daemon.
	ServiceClient = client.Client
	// SimulateRequest is one simulation request against a Server.
	SimulateRequest = serve.SimulateRequest
	// SweepRequest batches simulation requests through the Server's pool.
	SweepRequest = serve.SweepRequest
	// RunResult is the one encoding of a simulation run: what the daemon
	// serves and tcorsim -json prints for the same request.
	RunResult = serve.RunResult
	// ClientOption configures a ServiceClient (retries, breaker, metrics,
	// tenant credential).
	ClientOption = client.Option
	// TenantSet is a validated multi-tenant roster (see ParseTenants and
	// ServeOptions.Tenants): API keys mapped to named tenants with
	// fair-share weights, inflight/queue quotas and cache shares.
	TenantSet = serve.TenantSet
	// TenantSpec is one tenant's identity and limits within a TenantSet.
	TenantSpec = serve.TenantSpec
	// JobRecord is one durable async job's persisted state (see
	// ServeOptions.JobsDir and ServiceClient.SweepAsync): identity, kind,
	// owning tenant, lifecycle state and cell-level progress.
	JobRecord = serve.JobRecord
	// JobState is a JobRecord lifecycle state: JobQueued, JobRunning,
	// JobDone, JobFailed or JobCancelled.
	JobState = serve.JobState
	// RetryPolicy shapes a retrying client's backoff: attempt cap, base and
	// max delay, elapsed-time budget, deterministic jitter seed.
	RetryPolicy = resilience.RetryPolicy
	// BreakerConfig shapes a circuit breaker: rolling window, failure ratio,
	// cooldown and half-open probe count.
	BreakerConfig = resilience.BreakerConfig
	// FaultPlan arms deterministic fault injection (see ParseFaultPlan and
	// ServeOptions.Chaos).
	FaultPlan = resilience.FaultPlan
	// Injector schedules deterministic faults at named sites.
	Injector = resilience.Injector
)

// DefaultScreen returns the paper's Table I screen (1960x768, 32x32 tiles).
func DefaultScreen() Screen { return geom.DefaultScreen() }

// Benchmarks returns the aliases of the Table II suite in paper order.
func Benchmarks() []string { return workload.Aliases() }

// BenchmarkSpec returns the Table II spec with the given alias, panicking
// on unknown aliases (use workload.ByAlias for the error-returning form).
func BenchmarkSpec(alias string) Spec {
	s, err := workload.ByAlias(alias)
	if err != nil {
		panic(err)
	}
	return s
}

// LoadSpec reads a workload profile from a JSON file.
func LoadSpec(path string) (Spec, error) { return workload.LoadSpec(path) }

// GenerateWorkload synthesizes the calibrated scene for a spec.
func GenerateWorkload(spec Spec, screen Screen) (*Scene, error) {
	return workload.Generate(spec, screen)
}

// BaselineConfig returns the paper's baseline GPU with the given Tile Cache
// size in bytes.
func BaselineConfig(tileCacheBytes int) Config { return gpu.Baseline(tileCacheBytes) }

// TCORConfig returns the full TCOR configuration.
func TCORConfig(tileCacheBytes int) Config { return gpu.TCOR(tileCacheBytes) }

// Simulate runs every frame of the scene through the configured GPU.
func Simulate(scene *Scene, cfg Config) (*Result, error) { return gpu.Simulate(scene, cfg) }

// NewRunner returns an experiment runner over the default screen and full
// suite; its methods regenerate each of the paper's tables and figures.
// Set Runner.Parallel to bound concurrent simulations (0 = GOMAXPROCS)
// and Runner.Ctx to cancel in-flight sweeps.
func NewRunner() *Runner { return experiments.NewRunner() }

// Sweep runs jobs through a bounded worker pool of at most par goroutines
// (par <= 0 means GOMAXPROCS) and returns their results in job order,
// regardless of completion order. The first failure cancels the jobs that
// have not started yet; the returned error is the lowest-index job error.
// All of the Runner's multi-benchmark studies are built on this primitive.
func Sweep[T any](ctx context.Context, par int, jobs []func(context.Context) (T, error)) ([]T, error) {
	return experiments.Sweep(ctx, par, jobs)
}

// SweepSlice maps fn over items through the same bounded pool as Sweep,
// preserving item order in the result slice.
func SweepSlice[In, Out any](ctx context.Context, par int, items []In, fn func(context.Context, In) (Out, error)) ([]Out, error) {
	return experiments.SweepSlice(ctx, par, items, fn)
}

// AnnotateNextUse fills the Belady next-use indices an OPT simulation needs.
func AnnotateNextUse(t Trace) { trace.AnnotateNextUse(t) }

// SimulateCache runs a trace through a cache configuration and policy.
func SimulateCache(cfg CacheConfig, policy CachePolicy, t Trace) (CacheStats, error) {
	return cache.Simulate(cfg, policy, t)
}

// Replacement policy constructors, re-exported for SimulateCache.
var (
	NewLRU  = cache.NewLRU
	NewOPT  = cache.NewOPT
	NewMRU  = cache.NewMRU
	NewFIFO = cache.NewFIFO
)

// NewServer builds the simulation service. Start it with Server.Start, or
// mount Server.Handler on an existing mux; Server.Shutdown drains in-flight
// simulations before returning.
func NewServer(opts ServeOptions) *Server { return serve.NewServer(opts) }

// NewServiceClient returns a typed client for a tcord daemon at baseURL
// (e.g. "http://localhost:8344"). A nil httpClient uses http.DefaultClient.
// Options add resilience: WithClientRetry for transparent retries of
// transient failures, WithClientBreaker to stop hammering a down daemon,
// WithClientMetrics to meter both.
func NewServiceClient(baseURL string, httpClient *http.Client, opts ...ClientOption) *ServiceClient {
	return client.New(baseURL, httpClient, opts...)
}

// Client resilience options, re-exported for NewServiceClient.
var (
	WithClientRetry         = client.WithRetry
	WithClientBreaker       = client.WithBreaker
	WithClientMetrics       = client.WithMetrics
	WithClientMetricsPrefix = client.WithMetricsPrefix
	// WithClientTenant authenticates every call as the tenant owning the
	// given API key; the credential survives retries, gateway hedges and
	// failovers alongside the request ID.
	WithClientTenant = client.WithTenant
)

// ParseTenants validates a multi-tenant roster from its JSON form (the
// -tenants file of cmd/tcord). Misconfiguration is a hard error — weights,
// quotas and cache shares are never silently clamped.
func ParseTenants(data []byte) (*TenantSet, error) { return serve.ParseTenants(data) }

// Durable job lifecycle states, re-exported for JobRecord.State.
const (
	JobQueued    = serve.JobQueued
	JobRunning   = serve.JobRunning
	JobDone      = serve.JobDone
	JobFailed    = serve.JobFailed
	JobCancelled = serve.JobCancelled
)

// Gateway fronts a set of tcord shard daemons with the single-daemon API:
// consistent-hash routing by content address, hedged slow requests,
// failover with peer cache probes, byte-identical sweep merging.
type Gateway = cluster.Gateway

// GatewayOptions configure NewGateway; Shards (the shard daemons' base
// URLs) is the only required field.
type GatewayOptions = cluster.Options

// NewGateway builds a cluster gateway over GatewayOptions.Shards. Start
// it with Gateway.Start (or mount Gateway.Handler); Gateway.Shutdown
// drains in-flight proxied requests.
func NewGateway(opts GatewayOptions) (*Gateway, error) { return cluster.NewGateway(opts) }

// NewRing builds the consistent-hash ring the gateway routes with, for
// callers that want placement without proxying (e.g. a client-side
// router): NewRing(shardURLs, 0).Owner(key) names the shard whose cache
// holds key, with key from CanonicalRequestKey.
func NewRing(nodes []string, vnodes int) (*cluster.Ring, error) {
	return cluster.NewRing(nodes, vnodes)
}

// CanonicalRequestKey resolves an API request to its content address —
// the sha256 the result caches and the cluster ring both key on.
func CanonicalRequestKey(req SimulateRequest) (string, error) { return serve.CanonicalKey(req) }

// NewFaultInjector returns a deterministic fault injector: same seed, same
// fault schedule, regardless of goroutine interleaving. Arm sites on it and
// pass it to ServeOptions.Chaos (or a context via resilience helpers).
func NewFaultInjector(seed int64) *Injector { return resilience.NewInjector(seed) }

// ParseFaultPlan parses the -chaos flag grammar
// ("rate=0.1,lat=50ms,codes=500|503,seed=7") into a plan and its seed.
func ParseFaultPlan(s string) (FaultPlan, int64, error) { return resilience.ParsePlan(s) }

// RenderScene3D pushes a 3D scene through the Geometry Pipeline and wraps
// the result as a single-frame workload ready for Simulate. The spec
// supplies the non-geometric parameters (texture footprint, shader length).
func RenderScene3D(scene *Scene3D, screen Screen, spec Spec) (*Scene, error) {
	prims, _, err := geometry.Run(scene, geometry.PipelineConfig{
		Screen:        screen,
		CullBackfaces: true,
	})
	if err != nil {
		return nil, err
	}
	return workload.NewSceneFromFrames(spec, screen, []workload.Frame{{Prims: prims}})
}
