// Package serve exposes the simulator as a long-running network service:
// a versioned JSON HTTP API over the same workload/configuration types the
// library uses, an admission-control layer that bounds concurrent
// simulations behind a finite queue, a content-addressed result cache with
// singleflight collapse of concurrent identical requests, and a graceful
// lifecycle (drain on shutdown, per-request deadlines, panic isolation).
//
// The serving layer is deliberately a thin shell over the library: a served
// response body is byte-identical to what EncodeRunResult produces from a
// direct gpu.Simulate call with the same spec and configuration, so moving
// a workload between the CLI, the library and the daemon never changes a
// number.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"

	"tcor/internal/gpu"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

// Configuration names accepted by the API, mapping onto the library's
// constructors (cmd/tcorsim accepts the same set).
const (
	ConfigBaseline = "baseline"
	ConfigTCOR     = "tcor"
	ConfigTCORNoL2 = "tcor-nol2"
)

// SimulateRequest is the body of POST /v1/simulate and one item of a
// sweep. Exactly one of Benchmark (a Table II alias) and Spec (an inline
// workload profile, the same JSON shape workload.ParseSpec accepts) selects
// the workload. Unknown fields are rejected.
type SimulateRequest struct {
	// Benchmark is a suite alias (see GET /v1/benchmarks).
	Benchmark string `json:"benchmark,omitempty"`
	// Spec is an inline workload profile; it conflicts with Benchmark.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Config selects the hierarchy: baseline, tcor or tcor-nol2
	// (default tcor).
	Config string `json:"config,omitempty"`
	// TileCacheKB is the total Tile Cache budget in KiB (default 64).
	TileCacheKB int `json:"tileCacheKB,omitempty"`
	// Frames overrides the spec's frame count when positive.
	Frames int `json:"frames,omitempty"`
	// TimeoutMs bounds this request's total time (admission wait included);
	// 0 uses the server default. The server clamps it to its maximum.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Check verifies the hierarchy-wide stats invariants on the result and
	// fails the request on any violation (the HTTP form of tcorsim -check).
	// It does not change the response body of a passing run.
	Check bool `json:"check,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a batch of simulations that
// runs through the server's bounded worker pool. Results come back in item
// order regardless of completion order.
type SweepRequest struct {
	Items []SimulateRequest `json:"items"`
}

// SweepResponse is the body of a successful sweep. Each element is the
// exact byte sequence /v1/simulate would have served for the item.
type SweepResponse struct {
	Runs []json.RawMessage `json:"runs"`
}

// RunResult is the wire shape of one simulation: the tcorsim -json summary
// scalars plus the full hierarchy counter snapshot (sorted keys, stable
// schema across configurations — see gpu.Result.PublishStats).
type RunResult struct {
	Benchmark     string         `json:"benchmark"`
	Config        string         `json:"config"`
	TileCacheKB   int            `json:"tileCacheKB"`
	Frames        int            `json:"frames"`
	PPC           float64        `json:"primitivesPerCycle"`
	FPS           float64        `json:"fps"`
	MemReads      int64          `json:"memReads"`
	MemWrites     int64          `json:"memWrites"`
	HierEnergyMJ  float64        `json:"memHierarchyEnergyMJ"`
	TotalEnergyMJ float64        `json:"totalGPUEnergyMJ"`
	FrameCycles   int64          `json:"frameCycles"`
	Counters      stats.Snapshot `json:"counters"`
}

// BenchmarkInfo is one row of GET /v1/benchmarks.
type BenchmarkInfo struct {
	Alias          string  `json:"alias"`
	Name           string  `json:"name"`
	Genre          string  `json:"genre"`
	ThreeD         bool    `json:"threeD"`
	PBFootprintMiB float64 `json:"pbFootprintMiB"`
	AvgPrimReuse   float64 `json:"avgPrimReuse"`
	Frames         int     `json:"frames"`
}

// CacheOnlyHeader, set truthy on POST /v1/simulate, turns the request into
// a cache probe: a fresh (or, in degraded paths, bounded-stale) completed
// entry is served exactly as a hit would be, and anything else — absent
// key, expired entry, in-flight recompute — answers 404 with code
// "cache_miss" without consuming a worker slot or starting a simulation.
// The cluster gateway uses it for peer-aware lookup: before a failover
// shard simulates a key it does not own, the owner's cache is asked first.
const CacheOnlyHeader = "X-Tcord-Cache-Only"

// ShardHeader is set by the cluster gateway on proxied responses, naming
// the shard that served the request (diagnostics only; bodies are
// byte-identical no matter which shard answers).
const ShardHeader = "X-Tcord-Shard"

// benchmarkRows returns the GET /v1/benchmarks rows for the built-in Table
// II suite, in paper order. The shell serves them on every tier.
func benchmarkRows() []BenchmarkInfo {
	suite := workload.Suite()
	out := make([]BenchmarkInfo, len(suite))
	for i, spec := range suite {
		out[i] = BenchmarkInfo{
			Alias: spec.Alias, Name: spec.Name, Genre: spec.Genre,
			ThreeD: spec.ThreeD, PBFootprintMiB: spec.PBFootprintMiB,
			AvgPrimReuse: spec.AvgPrimReuse, Frames: spec.Frames,
		}
	}
	return out
}

// ErrorBody is the JSON shape of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable error code and the human text.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errQueueFull is returned by admission when the wait queue is saturated;
// the handler maps it to 429 + Retry-After.
var errQueueFull = &APIError{Status: http.StatusTooManyRequests,
	Code: "queue_full", Message: "simulation queue is full; retry later"}

// errDraining is returned while the server is shutting down.
var errDraining = &APIError{Status: http.StatusServiceUnavailable,
	Code: "draining", Message: "server is draining; not accepting new simulations"}

// ErrCacheMiss answers a CacheOnlyHeader probe the cache cannot serve.
var ErrCacheMiss = &APIError{Status: http.StatusNotFound,
	Code: "cache_miss", Message: "result not cached"}

// errUnknownTenant is returned when a request presents a credential the
// tenant roster does not know. Unknown keys never fall back to the
// anonymous tenant: a typo'd key silently sharing the default quota is a
// noisy-neighbor incident waiting to be misdiagnosed.
var errUnknownTenant = &APIError{Status: http.StatusUnauthorized,
	Code: "unknown_tenant", Message: "unknown tenant credential"}

// job is a fully resolved, validated simulation: the canonical form every
// API request reduces to before touching the cache or the worker pool.
type job struct {
	spec    workload.Spec
	cfgName string
	cfg     gpu.Config
	check   bool
	// key is the content address: a hash over the resolved spec and the
	// full configuration, so two requests that would simulate the same
	// thing collapse no matter how they were phrased.
	key string
}

// resolve validates a request against the server limits and maps it onto
// the library types. All failures are 400s with a precise message.
func (s *Server) resolve(req SimulateRequest) (job, error) {
	return resolveRequest(req, maxFrames)
}

// CanonicalKey resolves a request the way a server would and returns its
// content address — the sha256 over the resolved spec and configuration
// that the result cache and the cluster's consistent-hash ring both key
// on. A gateway uses it to route a request to the shard whose cache owns
// it; because per-server limits never enter the hash, the gateway and
// every shard agree on the address.
func CanonicalKey(req SimulateRequest) (string, error) {
	j, err := resolveRequest(req, 0)
	if err != nil {
		return "", err
	}
	return j.key, nil
}

// resolveRequest validates a request and maps it onto the library types.
// maxFrames is the server's frame limit (<= 0 means unlimited). All
// failures are 400s with a precise message.
func resolveRequest(req SimulateRequest, maxFrames int) (job, error) {
	var j job
	switch {
	case req.Benchmark != "" && len(req.Spec) > 0:
		return j, BadRequest("benchmark and spec are mutually exclusive")
	case req.Benchmark != "":
		spec, err := workload.ByAlias(req.Benchmark)
		if err != nil {
			return j, BadRequest("%v", err)
		}
		j.spec = spec
	case len(req.Spec) > 0:
		spec, err := workload.ParseSpec(req.Spec)
		if err != nil {
			return j, BadRequest("%v", err)
		}
		j.spec = spec
	default:
		return j, BadRequest("one of benchmark or spec is required")
	}

	if req.Frames < 0 {
		return j, BadRequest("frames must be non-negative, got %d", req.Frames)
	}
	if req.Frames > 0 {
		j.spec.Frames = req.Frames
	}
	if maxFrames > 0 && j.spec.Frames > maxFrames {
		return j, BadRequest("frames %d exceeds the server limit %d", j.spec.Frames, maxFrames)
	}
	if req.TimeoutMs < 0 {
		return j, BadRequest("timeoutMs must be non-negative, got %d", req.TimeoutMs)
	}

	sizeKB := req.TileCacheKB
	if sizeKB == 0 {
		sizeKB = 64
	}
	if sizeKB < 0 {
		return j, BadRequest("tileCacheKB must be positive, got %d", req.TileCacheKB)
	}
	name := req.Config
	if name == "" {
		name = ConfigTCOR
	}
	switch name {
	case ConfigBaseline:
		j.cfg = gpu.Baseline(sizeKB * 1024)
	case ConfigTCOR:
		j.cfg = gpu.TCOR(sizeKB * 1024)
	case ConfigTCORNoL2:
		j.cfg = gpu.TCORNoL2(sizeKB * 1024)
	default:
		return j, BadRequest("unknown config %q (baseline, tcor, tcor-nol2)", name)
	}
	j.cfgName = name
	if err := j.cfg.Validate(); err != nil {
		return j, BadRequest("%v", err)
	}
	j.check = req.Check
	j.key = contentKey(j.spec, j.cfgName, j.cfg)
	return j, nil
}

// contentKey hashes the resolved spec and configuration into the cache
// address. Both types are plain data, so their JSON encodings (fixed field
// order) are canonical.
func contentKey(spec workload.Spec, cfgName string, cfg gpu.Config) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(spec)    //nolint:errcheck // writing to a hash cannot fail
	enc.Encode(cfgName) //nolint:errcheck
	enc.Encode(cfg)     //nolint:errcheck
	return hex.EncodeToString(h.Sum(nil))
}

// BuildRunResult converts a finished simulation into the wire shape.
// The daemon and the golden tests share it: a served /v1/simulate body is
// exactly EncodeRunResult(BuildRunResult(...)) over a direct library call.
func BuildRunResult(alias, cfgName string, tileCacheKB int, res *gpu.Result) RunResult {
	return RunResult{
		Benchmark:     alias,
		Config:        cfgName,
		TileCacheKB:   tileCacheKB,
		Frames:        res.Frames,
		PPC:           res.PPC(),
		FPS:           res.FPS(600e6),
		MemReads:      res.DRAM.Reads,
		MemWrites:     res.DRAM.Writes,
		HierEnergyMJ:  res.MemHierarchyPJ / 1e9,
		TotalEnergyMJ: res.TotalPJ / 1e9,
		FrameCycles:   res.FrameCycles / int64(max(res.Frames, 1)),
		Counters:      res.StatsRegistry().Snapshot(),
	}
}

// EncodeRunResult is the canonical serialization of a RunResult: compact
// JSON plus a trailing newline. Cache entries store these bytes, so hits,
// coalesced waiters and fresh runs all serve the identical body.
func EncodeRunResult(rr RunResult) ([]byte, error) {
	blob, err := json.Marshal(rr)
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// decodeStrict decodes JSON rejecting unknown fields and trailing content.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return BadRequest("decoding request: %v", err)
	}
	if dec.More() {
		return BadRequest("request body has trailing content")
	}
	return nil
}
