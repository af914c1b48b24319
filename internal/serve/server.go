package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcor/internal/experiments"
	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/resilience"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

// Options configures a Server. The zero value is production-usable: every
// limit falls back to the default documented on its field.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; the excess is
	// rejected with 429 + Retry-After (0 = 64, negative = no queue).
	QueueDepth int
	// CacheEntries bounds the result cache in entries, evicted LRU
	// (0 = 256, negative = unbounded).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the request does not
	// carry one (0 = 60s).
	DefaultTimeout time.Duration
	// Registry receives every serving-layer metric (queue depth, in-flight
	// gauge, cache hit/miss/eviction counts, rejections, panics, latency
	// histograms); nil means a private registry, readable via
	// Server.Registry. GET /metrics serves it as Prometheus text; pass it to
	// stats.ServeDebug to expose it on a side listener with pprof.
	Registry *stats.Registry
	// Logger receives the structured access log (one line per request with
	// request ID, queue wait, cache disposition, status and duration) and
	// lifecycle events. Nil discards logs.
	Logger *slog.Logger
	// TraceCapacity bounds the in-memory span trace behind GET /debug/trace
	// (0 = 4096 spans, negative = tracing disabled). Once full, further
	// spans are dropped, never blocking a request.
	TraceCapacity int
	// Chaos, when non-nil, is a fault injector the serving stack evaluates
	// at its well-known sites (resilience.SiteHTTP once per request,
	// resilience.SiteSimulate inside the compute path). Arm sites on it
	// before passing it in; nil disables injection with zero cost.
	Chaos *resilience.Injector
	// Breaker, when non-nil, guards the simulation path with a circuit
	// breaker: repeated compute failures open it, open-state requests are
	// answered 503 (code "breaker_open") or served bounded-stale from the
	// cache, and /readyz reports degraded. Nil disables the breaker.
	Breaker *resilience.BreakerConfig
	// CacheTTL bounds a cached result's freshness; an expired entry is
	// recomputed on next use (0 = entries stay fresh forever, the historical
	// behavior).
	CacheTTL time.Duration
	// MaxStale bounds how far past CacheTTL an expired entry may still be
	// served while the breaker is open (0 = never serve stale). Stale
	// responses carry X-Tcord-Cache: stale and a Warning header.
	MaxStale time.Duration
	// Clock is the time source for cache expiry and breaker cooldowns
	// (nil = wall clock). Tests pass a resilience.FakeClock.
	Clock resilience.Clock
	// Tenants is the multi-tenant roster (see ParseTenants). Nil means a
	// single anonymous tenant owning the whole machine — the untenanted
	// server's exact behavior.
	Tenants *TenantSet
	// JobsDir, when non-empty, enables the durable async job API
	// (POST /v1/sweep?async=1, /v1/arena?async=1, GET/DELETE /v1/jobs/...):
	// each job persists its progress under JobsDir/<id>/ through the
	// experiments checkpoint journal, and a restarted daemon rescans the
	// directory and resumes incomplete jobs. Empty disables async requests
	// (they answer 400).
	JobsDir string
	// JobWorkers bounds concurrently executing background jobs
	// (0 = max(1, Workers/2), negative = 1). Jobs run off the sync
	// admission path, so a saturated job pool never starves interactive
	// requests of worker slots.
	JobWorkers int
}

// The request limits of both serving tiers. The cluster gateway applies
// the same body and deadline limits, so a request either tier rejects gets
// the same answer.
const (
	// DefaultMaxBodyBytes bounds request bodies; larger ones get 413.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultRequestTimeout is the deadline of a request that carries none
	// when Options.DefaultTimeout is zero.
	DefaultRequestTimeout = 60 * time.Second
	// DefaultMaxTimeout clamps request-supplied deadlines.
	DefaultMaxTimeout = 10 * time.Minute
	// MaxSweepItems bounds the items of one /v1/sweep; the gateway's
	// sub-sweeps are at most this long.
	MaxSweepItems = 64
	// maxFrames bounds the frames one simulation may run.
	maxFrames = 32
)

// withDefaults resolves the zero values.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.QueueDepth == 0:
		o.QueueDepth = 64
	case o.QueueDepth < 0:
		o.QueueDepth = 0
	}
	switch {
	case o.CacheEntries == 0:
		o.CacheEntries = 256
	case o.CacheEntries < 0:
		o.CacheEntries = 0 // unbounded
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = DefaultRequestTimeout
	}
	if o.Registry == nil {
		o.Registry = stats.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	switch {
	case o.TraceCapacity == 0:
		o.TraceCapacity = 4096
	case o.TraceCapacity < 0:
		o.TraceCapacity = 0 // disabled; NewTracer returns the nil no-op
	}
	if o.Clock == nil {
		o.Clock = resilience.Wall()
	}
	if o.Tenants == nil {
		o.Tenants = DefaultTenants()
	}
	switch {
	case o.JobWorkers == 0:
		o.JobWorkers = max(1, o.Workers/2)
	case o.JobWorkers < 0:
		o.JobWorkers = 1
	}
	return o
}

// Server is the simulation service: an http.Handler plus the admission
// gate, result cache and lifecycle state behind it. Create with NewServer;
// either mount Handler on an existing server or call Start/Shutdown.
type Server struct {
	opts    Options
	shell   Shell
	reg     *stats.Registry
	gate    *gate
	cache   *resultCache
	mux     *http.ServeMux
	logger  *slog.Logger
	tracer  *stats.Tracer // nil when TraceCapacity < 0
	chaos   *resilience.Injector
	brk     *resilience.Breaker // nil when Options.Breaker is nil
	clock   resilience.Clock
	tenants *TenantSet
	jobs    *jobManager // nil when JobsDir is empty
	jobsErr error       // a failed job-store init; async requests answer it

	draining atomic.Bool
	httpSrv  *http.Server

	// The arena endpoint's state: its own content-addressed report cache
	// (never sharing entries with the simulate cache — the value shapes
	// differ) and a lazily built, memo-bounded experiment runner.
	arenaCache *resultCache
	arenaOnce  sync.Once
	arenaR     *experiments.Runner

	simOK     *stats.Counter
	simFailed *stats.Counter
	simDur    *stats.Histogram // simulation compute time, ns
	encodeDur *stats.Histogram // result-encoding time, ns

	arenaOK     *stats.Counter
	arenaFailed *stats.Counter
	arenaDur    *stats.Histogram // arena race compute time, ns

	brkState *stats.Gauge   // breaker position (0 closed, 1 open, 2 half-open)
	brkTrans *stats.Counter // breaker state transitions
	brkShort *stats.Counter // calls short-circuited by an open breaker

	// simulate is the compute the worker pool runs; tests swap it to make
	// duration and cancellation observable. The default is gpu.Simulate,
	// which is ctx-blind: cancellation takes effect in the queue and
	// between sweep items, never mid-frame.
	simulate func(ctx context.Context, scene *workload.Scene, cfg gpu.Config) (*gpu.Result, error)
}

// NewServer builds a Server from opts.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Registry
	s := &Server{
		opts:  opts,
		reg:   reg,
		gate:  newGate(opts.Workers, opts.QueueDepth, opts.Tenants, opts.Clock, reg),
		cache: newResultCache(opts.CacheEntries, opts.CacheTTL, opts.MaxStale, opts.Clock, opts.Tenants, reg, "serve.cache"),
		// Arena reports are a few KiB each and deterministic, so entries
		// stay fresh forever under the same LRU bound as the simulate cache.
		arenaCache: newResultCache(opts.CacheEntries, 0, 0, opts.Clock, opts.Tenants, reg, "serve.arena.cache"),
		logger:     opts.Logger,
		tracer:     stats.NewTracer(opts.TraceCapacity),
		chaos:      opts.Chaos,
		clock:      opts.Clock,
		tenants:    opts.Tenants,

		simOK:     reg.Counter("serve.simulations.completed"),
		simFailed: reg.Counter("serve.simulations.failed"),
		simDur:    reg.Histogram("serve.sim.duration"),
		encodeDur: reg.Histogram("serve.encode.duration"),

		arenaOK:     reg.Counter("serve.arena.races.completed"),
		arenaFailed: reg.Counter("serve.arena.races.failed"),
		arenaDur:    reg.Histogram("serve.arena.duration"),

		brkState: reg.Gauge("serve.breaker.state"),
		brkTrans: reg.Counter("serve.breaker.transitions"),
		brkShort: reg.Counter("serve.breaker.shortCircuits"),
		simulate: func(_ context.Context, scene *workload.Scene, cfg gpu.Config) (*gpu.Result, error) {
			return gpu.Simulate(scene, cfg)
		},
	}
	s.shell = Shell{
		Service:  "serve",
		Tracer:   s.tracer,
		Logger:   s.logger,
		Registry: reg,
		Requests: reg.Counter("serve.http.requests"),
		Responses: map[int]*stats.Counter{
			2: reg.Counter("serve.http.responses.2xx"),
			4: reg.Counter("serve.http.responses.4xx"),
			5: reg.Counter("serve.http.responses.5xx"),
		},
		Panics:         reg.Counter("serve.panics"),
		Latency:        reg.Histogram("serve.http.latency"),
		Draining:       &s.draining,
		DrainErr:       errDraining,
		DefaultTimeout: opts.DefaultTimeout,
		Before:         s.admitTenant,
		Degraded:       s.degraded,
		MapError:       mapError,
		RetryAfter:     s.retryAfterEstimate,
		LogAttrs:       s.logAttrs,
	}
	if opts.Breaker != nil {
		// Chain the caller's observer behind the server's metering: the
		// state gauge and transition counter move on every change, and the
		// transition lands in the structured log.
		cfg := *opts.Breaker
		if cfg.Clock == nil {
			cfg.Clock = opts.Clock
		}
		prev := cfg.OnTransition
		cfg.OnTransition = func(from, to resilience.BreakerState) {
			s.brkState.Set(int64(to))
			s.brkTrans.Inc()
			s.logger.Warn("breaker transition", "from", from.String(), "to", to.String())
			if prev != nil {
				prev(from, to)
			}
		}
		s.brk = resilience.NewBreaker(cfg)
	}
	// Buffer overflow in the bounded tracer is silent at the Tracer level;
	// publish it so a fleet scrape can see span loss per process.
	s.tracer.MeterDropped(reg.Counter("trace.dropped"))
	if opts.JobsDir != "" {
		jm, err := newJobManager(s, opts.JobsDir, opts.JobWorkers)
		if err != nil {
			// The daemon stays up (the sync API is unaffected); async
			// submissions answer the stored error. cmd/tcord checks
			// JobsInitError at startup and refuses to run this degraded.
			s.jobsErr = err
			s.logger.Error("job store init failed", "dir", opts.JobsDir, "err", err)
		} else {
			s.jobs = jm
		}
	}
	s.registerInvariants()

	mux := s.shell.Mux()
	mux.HandleFunc("/v1/simulate", s.handleSimulate)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/arena", s.handleArena)
	mux.HandleFunc("/v1/jobs", s.shell.GetJSON(s.listJobs))
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux = mux
	if s.jobs != nil {
		// Resume incomplete jobs only after the mux is live: a resumed job
		// runs through the same compute path a fresh one does.
		s.jobs.resumeLoaded()
	}
	return s
}

// JobsInitError reports a failed durable-job-store initialization (an
// unreadable JobsDir, a torn job file that could not be quarantined). The
// server still serves the sync API; callers that require durable jobs
// should treat this as fatal.
func (s *Server) JobsInitError() error { return s.jobsErr }

// registerInvariants wires the serving-layer accounting identities into the
// registry. They are all inequalities over single atomic words, so a
// snapshot taken mid-request cannot trip them spuriously.
func (s *Server) registerInvariants() {
	workers, queue, cacheCap := int64(s.opts.Workers), int64(s.opts.QueueDepth), int64(s.opts.CacheEntries)
	s.reg.RegisterInvariant("serve.inflightBounded", func(snap stats.Snapshot) error {
		if got := snap.Get("serve.inflight"); got < 0 || got > workers {
			return fmt.Errorf("in-flight simulations %d outside [0,%d]", got, workers)
		}
		return nil
	})
	// The global queue bound is the sum of the per-tenant bounds: each
	// tenant queues at most its own MaxQueued (QueueDepth when unset).
	var queueTotal int64
	for _, t := range s.tenants.Tenants() {
		if t.MaxQueued > 0 {
			queueTotal += int64(t.MaxQueued)
		} else {
			queueTotal += queue
		}
	}
	s.reg.RegisterInvariant("serve.queueBounded", func(snap stats.Snapshot) error {
		if got := snap.Get("serve.queue.depth"); got < 0 || got > queueTotal {
			return fmt.Errorf("queue depth %d outside [0,%d]", got, queueTotal)
		}
		return nil
	})
	for _, t := range s.tenants.Tenants() {
		t := t
		prefix := "serve.tenant." + t.Name + "."
		s.reg.RegisterInvariant(prefix+"admissionsBounded", func(snap stats.Snapshot) error {
			// A tenant's admissions are a subset of the gate's.
			if ten, all := snap.Get(prefix+"admitted"), snap.Get("serve.admitted"); ten > all {
				return fmt.Errorf("tenant admissions %d exceed total %d", ten, all)
			}
			return nil
		})
		if t.MaxInflight > 0 {
			capT := int64(t.MaxInflight)
			s.reg.RegisterInvariant(prefix+"inflightCapped", func(snap stats.Snapshot) error {
				if got := snap.Get(prefix + "inflight"); got < 0 || got > capT {
					return fmt.Errorf("tenant in-flight %d outside [0,%d]", got, capT)
				}
				return nil
			})
		}
	}
	// Per-tenant cache charges partition the cache: their sum is the total
	// size. Both sides mutate under the cache mutex and Check runs at
	// quiescent points (shutdown post-drain, test ends), so equality holds.
	for _, prefix := range []string{"serve.cache", "serve.arena.cache"} {
		prefix := prefix
		s.reg.RegisterInvariant(prefix+".tenantChargesSum", func(snap stats.Snapshot) error {
			var sum int64
			for _, t := range s.tenants.Tenants() {
				sum += snap.Get(prefix + ".tenant." + t.Name + ".size")
			}
			if total := snap.Get(prefix + ".size"); sum != total {
				return fmt.Errorf("per-tenant cache charges sum to %d, total size is %d", sum, total)
			}
			return nil
		})
	}
	if s.jobs != nil {
		s.reg.RegisterInvariant("serve.jobs.conservation", func(snap stats.Snapshot) error {
			// Every created job is in exactly one state; Check runs at
			// quiescent points, so the partition is exact.
			sum := snap.Get("serve.jobs.queued") + snap.Get("serve.jobs.running") +
				snap.Get("serve.jobs.done") + snap.Get("serve.jobs.failed") +
				snap.Get("serve.jobs.cancelled")
			if created := snap.Get("serve.jobs.created"); sum != created {
				return fmt.Errorf("job states sum to %d, created is %d", sum, created)
			}
			return nil
		})
	}
	s.reg.RegisterInvariant("serve.cacheBounded", func(snap stats.Snapshot) error {
		if got := snap.Get("serve.cache.size"); got < 0 || (cacheCap > 0 && got > cacheCap) {
			return fmt.Errorf("cache size %d outside [0,%d]", got, cacheCap)
		}
		return nil
	})
	s.reg.RegisterInvariant("serve.cacheEvictionsBounded", func(snap stats.Snapshot) error {
		// Every eviction displaced an entry some miss inserted.
		if ev, miss := snap.Get("serve.cache.evictions"), snap.Get("serve.cache.misses"); ev > miss {
			return fmt.Errorf("cache evictions %d exceed misses %d", ev, miss)
		}
		return nil
	})
	s.reg.RegisterInvariant("serve.arenaCacheBounded", func(snap stats.Snapshot) error {
		if got := snap.Get("serve.arena.cache.size"); got < 0 || (cacheCap > 0 && got > cacheCap) {
			return fmt.Errorf("arena cache size %d outside [0,%d]", got, cacheCap)
		}
		return nil
	})
	s.reg.RegisterInvariant("serve.arenaRacesBounded", func(snap stats.Snapshot) error {
		// Every race outcome followed an arena-cache miss that led the
		// compute (hits and coalesced waiters never race).
		done := snap.Get("serve.arena.races.completed") + snap.Get("serve.arena.races.failed")
		if miss := snap.Get("serve.arena.cache.misses"); done > miss {
			return fmt.Errorf("arena race outcomes %d exceed cache misses %d", done, miss)
		}
		return nil
	})
	s.reg.RegisterInvariant("serve.simulationsBounded", func(snap stats.Snapshot) error {
		// Completions and failures are subsets of simulation starts: gate
		// admissions for sync requests, cell-simulation starts for
		// background jobs (both increment before either outcome).
		done := snap.Get("serve.simulations.completed") + snap.Get("serve.simulations.failed")
		started := snap.Get("serve.admitted") + snap.Get("serve.jobs.cells.simulations")
		if done > started {
			return fmt.Errorf("simulation outcomes %d exceed starts %d", done, started)
		}
		return nil
	})
	s.reg.RegisterInvariant("serve.breakerState", func(snap stats.Snapshot) error {
		if got := snap.Get("serve.breaker.state"); got < 0 || got > 2 {
			return fmt.Errorf("breaker state %d outside [0,2]", got)
		}
		return nil
	})
	s.reg.RegisterInvariant("serve.staleServesNeedHits", func(snap stats.Snapshot) error {
		// Every stale serve re-reads an entry some miss once completed; a
		// cache that was never filled cannot serve stale.
		if stale, miss := snap.Get("serve.cache.staleServes"), snap.Get("serve.cache.misses"); stale > 0 && miss == 0 {
			return fmt.Errorf("stale serves %d with zero misses", stale)
		}
		return nil
	})
	s.reg.RegisterInvariant("serve.queueWaitMatchesAdmissions", func(snap stats.Snapshot) error {
		// The admission-wait histogram observes successful admissions only
		// (canceled waiters meter serve.queue.canceledWait instead), and the
		// admitted counter always moves before the observation: a snapshot
		// can read fewer observations than admissions, never more.
		if obs, adm := snap.Get("serve.queue.wait.count"), snap.Get("serve.admitted"); obs > adm {
			return fmt.Errorf("queue-wait observations %d exceed admissions %d", obs, adm)
		}
		return nil
	})
	s.reg.RegisterInvariant("serve.cacheRetainedBounded", func(snap stats.Snapshot) error {
		// Every retention restores an entry that a TTL expiry dropped for
		// recompute moments earlier.
		if ret, exp := snap.Get("serve.cache.retained"), snap.Get("serve.cache.expired"); ret > exp {
			return fmt.Errorf("cache retentions %d exceed expiries %d", ret, exp)
		}
		return nil
	})
	s.reg.RegisterInvariant("serve.latencyObservations", func(snap stats.Snapshot) error {
		// Every finished request observes the latency histogram exactly
		// once, after the request counter moved; a mid-request snapshot can
		// only see fewer observations than requests.
		if obs, req := snap.Get("serve.http.latency.count"), snap.Get("serve.http.requests"); obs > req {
			return fmt.Errorf("latency observations %d exceed requests %d", obs, req)
		}
		return nil
	})
}

// Registry returns the serving-layer metrics registry.
func (s *Server) Registry() *stats.Registry { return s.reg }

// CheckInvariants verifies the serving-layer accounting identities.
func (s *Server) CheckInvariants() error { return s.reg.Check() }

// Handler returns the service's root handler behind the request shell.
// Mount it anywhere an http.Handler goes (httptest servers, an existing
// mux) — lifecycle then belongs to the host.
func (s *Server) Handler() http.Handler { return s.shell.Wrap(http.HandlerFunc(s.serveChaos)) }

// Start listens on addr (host:port; ":0" picks a free port) and serves in
// the background, returning the bound address. Pair with Shutdown.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Shutdown
	s.logger.Info("listening", "addr", ln.Addr().String())
	return ln.Addr().String(), nil
}

// Shutdown drains the server gracefully: readiness flips to 503, new
// simulations are refused, and in-flight requests (including queued ones)
// run to completion before Shutdown returns. ctx bounds the drain; its
// expiry abandons the stragglers and returns their error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.logger.Info("draining")
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if s.jobs != nil {
		// Interrupted jobs stay "running" on disk; the next start resumes
		// them from their checkpoint journals.
		s.jobs.stop()
	}
	s.logger.Info("drained")
	return err
}

// admitTenant is the shard's Before hook. It resolves the caller's tenant
// before anything can queue or cache: an unknown credential is a hard 401
// (never a silent fallback to the default tenant's quota), and the
// resolved tenant rides the context into the admission gate, the result
// cache, the span and the access log.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (*http.Request, bool) {
	tenant, err := s.tenants.Resolve(TenantKeyFromRequest(r))
	if tenant == nil {
		tenant = s.tenants.Default() // for the log line only
	}
	stats.SpanFrom(r.Context()).SetAttr("tenant", tenant.Name)
	ctx := contextWithMeta(r.Context(), &requestMeta{})
	r = r.WithContext(contextWithTenant(ctx, tenant))
	if err != nil {
		s.reg.Counter("serve.rejected.unknownTenant").Inc()
		s.shell.WriteError(w, err)
		return r, false
	}
	s.reg.Counter("serve.tenant." + tenant.Name + ".requests").Inc()
	return r, true
}

// logAttrs is the shard's access-log hook: the tenant, the admission wait
// and the cache disposition, which also lands on the request's span.
func (s *Server) logAttrs(ctx context.Context) []slog.Attr {
	wait, disposition := metaFrom(ctx).snapshot()
	stats.SpanFrom(ctx).SetAttr("cache", disposition)
	return []slog.Attr{
		slog.String("tenant", s.tenantFrom(ctx).Name),
		slog.Duration("queueWait", wait),
		slog.String("cache", disposition),
	}
}

// degraded is the shard's readiness hook: an open breaker means the
// simulation path is down.
func (s *Server) degraded() string {
	if s.brk.State() == resilience.Open {
		return "circuit open"
	}
	return ""
}

// mapError is the shard's error hook: an injected fault answers its own
// status, anything else is an opaque 500.
func mapError(err error) *APIError {
	var ie *resilience.InjectedError
	if errors.As(err, &ie) {
		status := ie.Code
		if status < 400 || status > 599 {
			status = http.StatusInternalServerError
		}
		return &APIError{Status: status, Code: "injected_fault", Message: ie.Error()}
	}
	return &APIError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
}

// serveChaos is the chaos hook in front of the routes: with SiteHTTP armed,
// a request may absorb injected latency, answer an injected status, or
// panic into the shell's recovery — all before the handler, so an injected
// fault can never reach the result cache. The nil injector costs one
// branch. Health, readiness, metrics, stats and debug endpoints are exempt:
// a drill needs a fault-free observability surface to be measurable, and a
// faulted /readyz would flap load balancers rather than exercise the API
// path under test. Exempt paths never reach the injector, so they neither
// tick its counter nor advance the seeded fault schedule: the Nth API
// request sees the same decision however many probes were interleaved.
func (s *Server) serveChaos(w http.ResponseWriter, r *http.Request) {
	var f resilience.Fault
	switch p := r.URL.Path; {
	case p == "/healthz", p == "/readyz", p == "/metrics", p == "/v1/stats", strings.HasPrefix(p, "/debug/"):
	default:
		f = s.chaos.Evaluate(resilience.SiteHTTP)
	}
	if f.Inject {
		if f.Latency > 0 {
			if err := s.clock.Sleep(r.Context(), f.Latency); err != nil {
				s.shell.WriteError(w, err) // client gone mid-injected-latency
				return
			}
		}
		if f.Panic {
			panic("resilience: injected panic at " + resilience.SiteHTTP)
		}
		if f.Err != nil {
			status := f.Code
			if status == 0 {
				status = http.StatusInternalServerError
			}
			s.shell.WriteError(w, &APIError{Status: status, Code: "injected_fault",
				Message: "injected fault (chaos mode)"})
			return
		}
		// Latency-only: fall through to the real handler.
	}
	s.mux.ServeHTTP(w, r)
}

// --- simulation endpoints ---

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if _, ok := s.shell.BeginSim(w, r, &req); !ok {
		return
	}

	j, err := s.resolve(req)
	if err != nil {
		s.shell.WriteError(w, err)
		return
	}
	if r.Header.Get(CacheOnlyHeader) != "" {
		// Peer probe: answer from the completed cache or not at all. No
		// admission, no simulation — a probing gateway must never turn a
		// cheap lookup into a second copy of the owner's work.
		val, how, ok := s.cache.peek(j.key)
		if !ok {
			s.shell.WriteError(w, ErrCacheMiss)
			return
		}
		if err := j.checked(val); err != nil {
			s.shell.WriteError(w, err)
			return
		}
		metaFrom(r.Context()).noteOutcome(how)
		WriteResult(w, val.body, string(how))
		return
	}
	ctx, cancel := s.shell.RequestContext(r, req.TimeoutMs)
	defer cancel()

	val, how, err := s.runJob(ctx, j)
	if err == nil {
		err = j.checked(val)
	}
	if err != nil {
		s.shell.WriteError(w, err)
		return
	}
	WriteResult(w, val.body, string(how))
}

// checked re-verifies the result's stats invariants when the request set
// check, and answers a violation as a 500 invariant_violation. Every path
// that returns a simulation (sync or async, computed or cached) passes
// through it.
func (j job) checked(val cached) error {
	if !j.check {
		return nil
	}
	if err := val.res.CheckInvariants(); err != nil {
		return &APIError{Status: http.StatusInternalServerError,
			Code: "invariant_violation", Message: err.Error()}
	}
	return nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	body, ok := s.shell.BeginSim(w, r, &req)
	if !ok {
		return
	}
	jobs, timeoutMs, err := ResolveSweep(req, MaxSweepItems, "server", s.resolve)
	if err != nil {
		s.shell.WriteError(w, err)
		return
	}
	if AsyncRequested(r) {
		// The request is fully validated; hand it to the durable job
		// subsystem and answer with the job record immediately.
		s.submitJob(w, r, JobKindSweep, body)
		return
	}
	ctx, cancel := s.shell.RequestContext(r, timeoutMs)
	defer cancel()

	// The items fan out through the same bounded pool the experiment
	// harness uses; each one still passes the admission gate and the
	// result cache, so a sweep is exactly N simulate calls with shared
	// scheduling and deterministic (item-order) results.
	var anyStale atomic.Bool
	runs, err := experiments.SweepSlice(ctx, s.opts.Workers, jobs,
		func(ctx context.Context, j job) ([]byte, error) {
			val, how, err := s.runJob(ctx, j)
			if err != nil {
				return nil, err
			}
			if how == outcomeStale {
				anyStale.Store(true)
			}
			if err := j.checked(val); err != nil {
				return nil, err
			}
			return val.body, nil
		})
	if err != nil {
		s.shell.WriteError(w, err)
		return
	}
	s.shell.WriteSweep(w, runs, anyStale.Load())
}

// AsyncRequested reports whether the request asked for the durable-job
// path (?async=1 or ?async=true). Exported so the cluster gateway applies
// the exact same test before routing a submission to a shard.
func AsyncRequested(r *http.Request) bool {
	switch r.URL.Query().Get("async") {
	case "1", "true":
		return true
	}
	return false
}

// runJob serves one resolved simulation through the cache, the singleflight
// table and the admission gate, in that order: a cached result costs no
// worker slot, a coalesced waiter rides the leader's slot, and only a true
// miss enters the queue. The compute path is guarded by the circuit
// breaker (when configured): an open breaker short-circuits to 503 before
// a worker slot is consumed, and the cache may then serve bounded-stale
// entries instead. The cache disposition is noted on the request's meta
// for the access log.
func (s *Server) runJob(ctx context.Context, j job) (cached, outcome, error) {
	val, how, err := s.cache.get(ctx, j.key, s.breakerOpen, func() (cached, error) {
		done, allowErr := s.brk.Allow()
		if allowErr != nil {
			s.brkShort.Inc()
			ae := &APIError{Status: http.StatusServiceUnavailable, Code: "breaker_open",
				Message: "simulation path unavailable (circuit open); retry later"}
			var oe *resilience.OpenError
			if errors.As(allowErr, &oe) {
				ae.RetryAfter = oe.RetryIn
			}
			return cached{}, ae
		}
		// The breaker must observe exactly one outcome per admitted call,
		// panics included: an escaping panic (an injected one, or a bug in
		// the simulator) records as a failure on the way out; the normal
		// path commits first and records its classified outcome.
		committed := false
		defer func() {
			if !committed {
				done(errComputePanicked)
			}
		}()
		val, err := s.admitted(ctx, func() (cached, error) { return s.computeCell(ctx, j) })
		committed = true
		done(breakerOutcome(err))
		return val, err
	})
	if err == nil {
		metaFrom(ctx).noteOutcome(how)
	}
	return val, how, err
}

// breakerOpen reports whether the simulate path's breaker is open — the
// cache's license to serve bounded-stale entries.
func (s *Server) breakerOpen() bool { return s.brk.State() == resilience.Open }

// breakerOutcome classifies a compute error for the circuit breaker. Only
// failures of the simulation path itself count against it: cancellations
// and client-attributable rejections (4xx, including queue-full 429s, which
// admission already handles) say nothing about the path's health.
func breakerOutcome(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return resilience.Ignore
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.Status < 500 {
		return resilience.Ignore
	}
	return err
}

// admitted runs a sync cache-miss leader's work behind admission: a slot
// from the fair-share gate, held until compute returns. A queue-full
// rejection is decorated with the caller tenant's own Retry-After — sized
// from that tenant's backlog, not the whole machine's — and a request whose
// deadline or client beat the queue does not start.
func (s *Server) admitted(ctx context.Context, compute func() (cached, error)) (cached, error) {
	rel, err := s.gate.acquire(ctx)
	if err != nil {
		if err == errQueueFull {
			qe := *errQueueFull
			qe.RetryAfter = s.tenantRetryAfter(s.tenantFrom(ctx))
			return cached{}, &qe
		}
		return cached{}, err
	}
	defer rel()
	if err := ctx.Err(); err != nil {
		return cached{}, err
	}
	return compute()
}

// computeCell is the admission-free compute core: workload generation, the
// simulation itself and the canonical encoding, split into sim and encode
// spans feeding the serve.sim.duration and serve.encode.duration
// histograms. Sync requests reach it through the admission gate; background
// jobs call it directly — their concurrency is bounded by the job pool, off
// the sync admission path. With SiteSimulate armed, the chaos injector runs
// first — injected errors surface like simulator failures and are never
// cached.
func (s *Server) computeCell(ctx context.Context, j job) (cached, error) {
	if err := s.chaos.Inject(ctx, resilience.SiteSimulate); err != nil {
		s.simFailed.Inc()
		return cached{}, err
	}
	scene, err := workload.Generate(j.spec, geom.DefaultScreen())
	if err != nil {
		s.simFailed.Inc()
		return cached{}, BadRequest("generating workload: %v", err)
	}
	simT0 := time.Now()
	sp, sctx := stats.StartSpan(ctx, "simulate", "serve")
	sp.SetAttr("benchmark", j.spec.Alias)
	sp.SetAttr("config", j.cfgName)
	cfg := j.cfg
	cfg.Tracer = s.tracer // json:"-", so the cache key is unaffected
	cfg.TraceParent = sp  // frame/phase spans join the request's trace
	res, err := s.simulate(sctx, scene, cfg)
	sp.End()
	s.simDur.ObserveSince(simT0)
	if err != nil {
		s.simFailed.Inc()
		return cached{}, err
	}
	encT0 := time.Now()
	esp, _ := stats.StartSpan(ctx, "encode", "serve")
	body, err := EncodeRunResult(BuildRunResult(j.spec.Alias, j.cfgName, j.cfg.TileCacheBytes/1024, res))
	esp.End()
	s.encodeDur.ObserveSince(encT0)
	if err != nil {
		s.simFailed.Inc()
		return cached{}, err
	}
	s.simOK.Inc()
	return cached{res: res, body: body}, nil
}

// retryAfterEstimate sizes the 429 hint from live load instead of a
// constant: the backlog (in-flight plus queued plus the rejected caller)
// amounts to ceil(backlog/workers) worker-pool turnovers, each costing
// about the observed p50 simulation time (floored at a second while the
// histogram is empty or the suite is fast). Clamped to [1s, 60s] so a cold
// histogram or a pathological backlog cannot produce a useless hint.
func (s *Server) retryAfterEstimate() time.Duration {
	return s.retryAfterFor(s.gate.backlog()+1, int64(s.opts.Workers))
}

// tenantRetryAfter sizes a tenant's 429 hint from that tenant's own backlog
// over its fair share of the worker pool: a light tenant behind a heavy
// neighbor is told to come back soon, not to wait out a machine-wide queue
// it will never stand in.
func (s *Server) tenantRetryAfter(t *TenantSpec) time.Duration {
	return s.retryAfterFor(s.gate.tenantBacklog(t)+1, int64(s.gate.tenantWorkers(t)))
}

func (s *Server) retryAfterFor(backlog, workers int64) time.Duration {
	waves := (backlog + workers - 1) / workers
	p50 := time.Duration(s.simDur.Quantile(0.5))
	if p50 < time.Second {
		p50 = time.Second
	}
	d := time.Duration(waves) * p50
	if d < time.Second {
		d = time.Second
	}
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}
