package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"tcor/internal/arena"
	"tcor/internal/experiments"
)

// ArenaRequest is the body of POST /v1/arena: a replacement-policy race over
// the attribute-trace suite. The zero request races the default roster over
// the full Table II suite at the paper's 48 KiB design point. The daemon
// races single-frame traces (the runner is shared and memoized, so the frame
// count is pinned), which is the same geometry `paperfig -arena -frames 1`
// reproduces — the two emit byte-identical reports.
type ArenaRequest struct {
	// Policies is the roster of registry names (GET /v1/arena is not a
	// thing; the names are cache.PolicyNames). Empty = the default roster.
	// LRU and OPT always race: they anchor the ranking's gap columns.
	Policies []string `json:"policies,omitempty"`
	// Benchmarks restricts the suite by Table II alias (empty = all ten).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// SizeKB is the headline capacity in KiB (0 = 48, the paper's point).
	SizeKB float64 `json:"sizeKB,omitempty"`
	// Ways is the associativity (0 = fully associative).
	Ways int `json:"ways,omitempty"`
	// Curves adds the Fig. 11-style miss-ratio-vs-size series per policy.
	Curves bool `json:"curves,omitempty"`
	// CurveSizesKB overrides the curve grid (empty with Curves = default).
	CurveSizesKB []float64 `json:"curveSizesKB,omitempty"`
	// TimeoutMs bounds this request's total time (admission wait included);
	// 0 uses the server default. The server clamps it to its maximum.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// maxArenaCurveSizes bounds one request's curve grid: the race costs
// (1 + curve sizes) x benchmarks x policies simulations, and the other two
// factors are already capped by the suite and the registry.
const maxArenaCurveSizes = 32

// arenaOptions maps a request onto normalized arena options. All failures
// are 400s with a precise message.
func arenaOptions(req ArenaRequest) (arena.Options, error) {
	if req.TimeoutMs < 0 {
		return arena.Options{}, BadRequest("timeoutMs must be non-negative, got %d", req.TimeoutMs)
	}
	opts, err := arena.Normalize(arena.Options{
		Policies:     req.Policies,
		Benchmarks:   req.Benchmarks,
		SizeKB:       req.SizeKB,
		Ways:         req.Ways,
		Curves:       req.Curves,
		CurveSizesKB: req.CurveSizesKB,
	})
	if err != nil {
		return opts, BadRequest("%v", err)
	}
	if len(opts.CurveSizesKB) > maxArenaCurveSizes {
		return opts, BadRequest("curve grid has %d sizes; the server limit is %d",
			len(opts.CurveSizesKB), maxArenaCurveSizes)
	}
	return opts, nil
}

// ArenaKey resolves a request the way a server would and returns its
// normalized options plus its content address: a sha256 over the canonical
// (normalized) options, so two requests meaning the same race share one
// address no matter how they were phrased. The cluster gateway routes
// /v1/arena with it, the same way CanonicalKey routes /v1/simulate.
func ArenaKey(req ArenaRequest) (arena.Options, string, error) {
	opts, err := arenaOptions(req)
	if err != nil {
		return opts, "", err
	}
	h := sha256.New()
	json.NewEncoder(h).Encode(opts) //nolint:errcheck // writing to a hash cannot fail
	return opts, "arena:" + hex.EncodeToString(h.Sum(nil)), nil
}

// arenaRunner returns the server's lazily built arena runner: single-frame
// traces (see ArenaRequest), memo tables bounded so an open-ended request
// stream cannot grow the daemon without bound, and the sweep parallelism the
// race itself manages (the runner's own Parallel is unused by the arena).
func (s *Server) arenaRunner() *experiments.Runner {
	s.arenaOnce.Do(func() {
		r := experiments.NewRunner()
		r.Frames = 1
		r.MemoCap = 32
		s.arenaR = r
	})
	return s.arenaR
}

// handleArena serves POST /v1/arena: normalize, content-address, then run
// the race through the arena's own result cache (singleflight inside) and
// the admission gate. Like /v1/simulate, a cached report costs no worker
// slot and concurrent identical races collapse into one.
func (s *Server) handleArena(w http.ResponseWriter, r *http.Request) {
	var req ArenaRequest
	body, ok := s.shell.BeginSim(w, r, &req)
	if !ok {
		return
	}
	opts, key, err := ArenaKey(req)
	if err != nil {
		s.shell.WriteError(w, err)
		return
	}
	if AsyncRequested(r) {
		s.submitJob(w, r, JobKindArena, body)
		return
	}
	ctx, cancel := s.shell.RequestContext(r, req.TimeoutMs)
	defer cancel()

	val, how, err := s.arenaCache.get(ctx, key, nil, func() (cached, error) {
		// One admission slot for the whole race: it parallelizes
		// internally across the worker count.
		return s.admitted(ctx, func() (cached, error) { return s.raceArena(ctx, s.arenaRunner(), opts) })
	})
	if err != nil {
		s.shell.WriteError(w, err)
		return
	}
	WriteResult(w, val.body, string(how))
}

// raceArena runs one arena race on the given runner and encodes the
// canonical report. Sync requests pass the shared memoized runner;
// background arena jobs pass a private runner wired to the job's
// checkpoint journal so the race resumes across restarts.
func (s *Server) raceArena(ctx context.Context, runner *experiments.Runner, opts arena.Options) (cached, error) {
	cells := int64(len(opts.Benchmarks) * (1 + len(opts.CurveSizesKB)))
	for _, p := range opts.Policies {
		s.reg.Counter("serve.arena.policy." + strings.ToLower(p) + ".races").Inc()
		s.reg.Counter("serve.arena.policy." + strings.ToLower(p) + ".cells").Add(cells)
	}

	opts.Parallel = s.opts.Workers
	t0 := time.Now()
	rep, err := arena.Race(ctx, runner, opts)
	s.arenaDur.ObserveSince(t0)
	if err != nil {
		s.arenaFailed.Inc()
		return cached{}, err
	}
	body, err := rep.Encode()
	if err != nil {
		s.arenaFailed.Inc()
		return cached{}, err
	}
	s.arenaOK.Inc()
	return cached{body: body}, nil
}
