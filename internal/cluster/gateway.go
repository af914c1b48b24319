package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/serve/client"
	"tcor/internal/stats"
)

// Options configure a Gateway. The zero value is not usable: Shards is
// required.
type Options struct {
	// Shards are the shard daemons' base URLs ("http://host:port"), each
	// a full tcord serving stack. The list is the ring membership — order
	// does not affect key placement (names are hashed), but it is the
	// index space of per-shard metrics and /v1/ring rows.
	Shards []string
	// VNodes is the virtual-node count per shard on the consistent-hash
	// ring (0 = DefaultVNodes).
	VNodes int
	// HedgeAfter controls request hedging on /v1/simulate: positive is a
	// fixed delay after which the gateway issues a second copy of the
	// request to the next shard on the ring; zero (the default) adapts
	// the delay to the observed p99 of proxied simulate latency (the
	// gw.proxy.duration histogram), floored at minHedge and disabled
	// until HedgeWarmup samples exist; negative disables hedging.
	HedgeAfter time.Duration
	// Retry configures the per-shard client's retry policy (nil = 3
	// attempts, 50ms base, 1s cap). Transient shard blips are absorbed
	// here; sustained failure surfaces to the gateway, trips the shard's
	// breaker and triggers failover.
	Retry *resilience.RetryPolicy
	// Breaker configures the per-shard circuit breakers the router
	// consults (nil = 8-outcome window, 0.5 ratio, 2s cooldown). An open
	// breaker takes its shard out of the candidate order until a probe
	// succeeds.
	Breaker *resilience.BreakerConfig
	// HTTPClient is the transport shared by every shard client (nil =
	// http.DefaultClient).
	HTTPClient *http.Client
	// Registry receives the gateway's metrics (nil = private, readable
	// via Gateway.Registry).
	Registry *stats.Registry
	// Logger receives the access log and lifecycle events (nil =
	// discard).
	Logger *slog.Logger
	// Chaos, when non-nil, is evaluated at resilience.SiteProxy once per
	// upstream attempt: an injected fault aborts the attempt before it
	// reaches the wire, exercising failover without a real shard death.
	Chaos *resilience.Injector
	// TraceCapacity bounds the gateway's in-memory span trace (0 = 4096
	// spans, negative = tracing disabled). Every request gets a root span;
	// each upstream attempt — hedge, failover, cache probe, sub-sweep —
	// becomes a child span whose identity is propagated to the shard in the
	// traceparent header, so the cluster trace collector can stitch the
	// per-process span sets back into one export.
	TraceCapacity int
}

// HedgeWarmup is how many proxied simulate latencies the adaptive hedger
// wants before it starts hedging: quantiles over fewer samples whipsaw.
const HedgeWarmup = 16

const (
	// minHedge floors the adaptive hedge delay so a burst of cache hits
	// cannot drive it toward zero and double every request.
	minHedge = 50 * time.Millisecond
	// probeTimeout bounds the peer cache probe issued to a key's owner
	// before a failover shard is allowed to simulate it.
	probeTimeout = time.Second
	// maxSweepItems bounds one /v1/sweep at the gateway. The gateway
	// chunks sweeps into sub-sweeps of at most serve.MaxSweepItems, so its
	// bound is larger than a single shard's.
	maxSweepItems = 1024
)

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.Retry == nil {
		o.Retry = &resilience.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    time.Second,
		}
	}
	if o.Breaker == nil {
		o.Breaker = &resilience.BreakerConfig{
			Window:       8,
			MinSamples:   3,
			FailureRatio: 0.5,
			Cooldown:     2 * time.Second,
		}
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
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
	return o
}

// shard is one upstream daemon: a typed client (retry inside) plus the
// circuit breaker the router consults before sending work its way. idx is
// the shard's position in Options.Shards — the index space of per-shard
// metrics, the `shard` rollup label and the stitched trace's track names.
type shard struct {
	name   string
	idx    int
	client *client.Client
	brk    *resilience.Breaker
}

// Gateway fronts a set of tcord shard daemons with the same public API a
// single daemon serves. Simulations route to the shard owning their
// content address; sweeps fan out as per-owner sub-sweeps and reassemble
// in item order. Responses are byte-identical to a single node serving
// the same request.
type Gateway struct {
	opts   Options
	shell  serve.Shell
	ring   *Ring
	shards []*shard
	reg    *stats.Registry
	logger *slog.Logger
	chaos  *resilience.Injector
	tracer *stats.Tracer // nil when TraceCapacity < 0

	mux      *http.ServeMux
	httpSrv  *http.Server
	draining atomic.Bool

	proxyDur   *stats.Histogram // successful proxied /v1/simulate calls, ns
	hedges     *stats.Counter
	hedgeWins  *stats.Counter
	failovers  *stats.Counter
	probeHits  *stats.Counter
	fallback   *stats.Counter // sweep items recovered item-by-item
	jobSubmits *stats.Counter // async submissions routed to a job's owner
	jobProxied *stats.Counter // job reads/cancels proxied to a shard
}

// NewGateway builds a gateway over opts.Shards. The shard list is fixed
// for the gateway's lifetime.
func NewGateway(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(opts.Shards, opts.VNodes)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	g := &Gateway{
		opts:       opts,
		ring:       ring,
		reg:        reg,
		logger:     opts.Logger,
		chaos:      opts.Chaos,
		tracer:     stats.NewTracer(opts.TraceCapacity),
		proxyDur:   reg.Histogram("gw.proxy.duration"),
		hedges:     reg.Counter("gw.hedges"),
		hedgeWins:  reg.Counter("gw.hedge.wins"),
		failovers:  reg.Counter("gw.failovers"),
		probeHits:  reg.Counter("gw.probe.hits"),
		fallback:   reg.Counter("gw.sweep.fallbackItems"),
		jobSubmits: reg.Counter("gw.jobs.submits"),
		jobProxied: reg.Counter("gw.jobs.proxied"),
	}
	g.shell = serve.Shell{
		Service:   "cluster",
		Tracer:    g.tracer,
		Logger:    g.logger,
		Registry:  reg,
		Requests:  reg.Counter("gw.requests"),
		Responses: make(map[int]*stats.Counter, 4),
		Panics:    reg.Counter("gw.panics"),
		Latency:   reg.Histogram("gw.latency"),
		Draining:  &g.draining,
		DrainErr: &serve.APIError{Status: http.StatusServiceUnavailable,
			Code: "draining", Message: "gateway is draining; not accepting new simulations"},
		// A shard's default deadline, so a request the gateway times out
		// gets the shard's exact answer. It bounds the whole
		// hedged/failover chain.
		DefaultTimeout: serve.DefaultRequestTimeout,
		Before:         liftTenantKey,
		Degraded:       g.degraded,
		MapError:       mapUpstreamError,
	}
	for c := 2; c <= 5; c++ {
		g.shell.Responses[c] = reg.Counter("gw.responses." + strconv.Itoa(c) + "xx")
	}
	for i, name := range opts.Shards {
		cfg := *opts.Breaker
		g.shards = append(g.shards, &shard{
			name: name,
			idx:  i,
			client: client.New(name, opts.HTTPClient,
				client.WithRetry(*opts.Retry),
				client.WithMetricsPrefix(reg, "gw.shard."+strconv.Itoa(i))),
			brk: resilience.NewBreaker(cfg),
		})
	}
	g.tracer.MeterDropped(reg.Counter("trace.dropped"))
	g.registerInvariants()

	mux := g.shell.Mux()
	mux.HandleFunc("/v1/ring", g.shell.GetJSON(g.ringInfo))
	mux.HandleFunc("/v1/simulate", g.handleSimulate)
	mux.HandleFunc("/v1/sweep", g.handleSweep)
	mux.HandleFunc("/v1/arena", g.handleArena)
	mux.HandleFunc("/v1/jobs", g.shell.GetJSON(g.listJobs))
	mux.HandleFunc("/v1/jobs/", g.handleJob)
	mux.HandleFunc("/v1/cluster/trace/", g.handleClusterTrace)
	mux.HandleFunc("/v1/cluster/metrics", g.handleClusterMetrics)
	mux.HandleFunc("/v1/cluster/health", g.shell.GetJSON(g.clusterHealth))
	g.mux = mux
	return g, nil
}

// registerInvariants wires the routing-layer accounting identities.
func (g *Gateway) registerInvariants() {
	g.reg.RegisterInvariant("gw.hedgeWinsBounded", func(snap stats.Snapshot) error {
		if wins, hedges := snap.Get("gw.hedge.wins"), snap.Get("gw.hedges"); wins > hedges {
			return fmt.Errorf("hedge wins %d exceed hedges issued %d", wins, hedges)
		}
		return nil
	})
	g.reg.RegisterInvariant("gw.probeHitsBounded", func(snap stats.Snapshot) error {
		// A peer cache probe only happens on a failover attempt.
		if hits, fo := snap.Get("gw.probe.hits"), snap.Get("gw.failovers"); hits > fo {
			return fmt.Errorf("probe hits %d exceed failovers %d", hits, fo)
		}
		return nil
	})
}

// Registry returns the gateway's metric registry.
func (g *Gateway) Registry() *stats.Registry { return g.reg }

// Ring returns the gateway's placement ring.
func (g *Gateway) Ring() *Ring { return g.ring }

// CheckInvariants verifies the registry's registered invariants.
func (g *Gateway) CheckInvariants() error { return g.reg.Check() }

// Handler returns the gateway's HTTP handler behind the request shell.
func (g *Gateway) Handler() http.Handler { return g.shell.Wrap(g.mux) }

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address. Pair with Shutdown.
func (g *Gateway) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	g.httpSrv = &http.Server{Handler: g.Handler()}
	go g.httpSrv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Shutdown
	g.logger.Info("gateway listening", "addr", ln.Addr().String(), "shards", len(g.shards))
	return ln.Addr().String(), nil
}

// Shutdown drains the gateway: readiness flips to 503, new simulations
// are refused, in-flight proxied requests run to completion.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.draining.Store(true)
	if g.httpSrv == nil {
		return nil
	}
	return g.httpSrv.Shutdown(ctx)
}

// liftTenantKey is the gateway's Before hook: it lifts the caller's tenant
// credential into the context, where the per-shard client re-applies it on
// every attempt, so quota and cache accounting follow the caller through
// retries, hedges and failovers alike. The gateway never resolves the
// credential itself — an unknown key is the owning shard's 401 to give,
// passed through unchanged.
func liftTenantKey(_ http.ResponseWriter, r *http.Request) (*http.Request, bool) {
	return r.WithContext(serve.ContextWithTenantKey(r.Context(), serve.TenantKeyFromRequest(r))), true
}

// degraded is the gateway's readiness hook: it can route while any shard
// circuit admits work.
func (g *Gateway) degraded() string {
	for _, sh := range g.shards {
		if sh.brk.State() != resilience.Open {
			return ""
		}
	}
	return "all shard circuits open"
}

// mapUpstreamError is the gateway's error hook. An upstream rejection
// passes through unchanged (same status, code, message and Retry-After
// hint the shard produced), no routable shard is all_shards_unavailable,
// and anything else is a 502.
func mapUpstreamError(err error) *serve.APIError {
	var ae *client.APIError
	switch {
	case errors.As(err, &ae):
		out := &serve.APIError{Status: ae.Status, Code: ae.Code, Message: ae.Message}
		if ae.HasRetryAfter {
			out.RetryAfter = ae.RetryAfter
		}
		return out
	case errors.Is(err, resilience.ErrOpen):
		out := &serve.APIError{Status: http.StatusServiceUnavailable, Code: "all_shards_unavailable",
			Message: "no shard available (circuits open); retry later"}
		var oe *resilience.OpenError
		if errors.As(err, &oe) {
			out.RetryAfter = oe.RetryIn
		}
		return out
	}
	return &serve.APIError{Status: http.StatusBadGateway, Code: "upstream_error", Message: err.Error()}
}

// RingInfo is the body of GET /v1/ring: the cluster topology as the
// gateway sees it.
type RingInfo struct {
	VNodes int         `json:"vnodes"`
	Shards []ShardInfo `json:"shards"`
}

// ShardInfo is one ring member and its router-side circuit state.
type ShardInfo struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"`
}

func (g *Gateway) ringInfo(*http.Request) (any, error) {
	info := RingInfo{VNodes: g.opts.VNodes}
	for _, sh := range g.shards {
		info.Shards = append(info.Shards, ShardInfo{
			Name:    sh.name,
			Breaker: sh.brk.State().String(),
		})
	}
	return info, nil
}

// --- upstream attempts ---

// try names one upstream attempt: the span that records it, the shard it
// goes to and the marks the span carries.
type try struct {
	span     string // gw.attempt, gw.subsweep, gw.job.proxy or gw.job.submit
	sh       *shard
	n        int  // the attempt's index among the request's attempts
	failover bool // a predecessor attempt did not serve the request
	hedged   bool // a latency hedge
	items    int  // a sub-sweep's size, recorded in place of n
}

// attempt runs one upstream try as a child span of the request's root —
// the span whose identity call carries to the shard in its traceparent
// header, so the shard's own spans stitch under it. SiteProxy chaos runs
// first: an injected fault aborts the try before it reaches the wire. done
// is the callback the shard's breaker returned from Allow; an injected
// fault is released with Ignore, and call's error is filed through
// shardOutcome. The span's outcome is judged against ctx, so a try the
// caller abandoned reads "cancelled".
func (g *Gateway) attempt(ctx context.Context, t try, done func(error), call func(context.Context) error) error {
	sp, sctx := stats.StartSpan(ctx, t.span, "cluster")
	sp.SetAttr("shard", "shard-"+strconv.Itoa(t.sh.idx))
	if t.items > 0 {
		sp.SetAttr("items", strconv.Itoa(t.items))
	} else {
		sp.SetAttr("attempt", strconv.Itoa(t.n))
	}
	if t.failover {
		sp.SetAttr("failover", "true")
	}
	if t.hedged {
		sp.SetAttr("hedged", "true")
	}
	err := g.chaos.Inject(sctx, resilience.SiteProxy)
	if err != nil {
		done(resilience.Ignore) // injected at the gateway, not the shard's fault
	} else {
		err = call(sctx)
		done(shardOutcome(err))
	}
	sp.SetAttr("outcome", attemptOutcome(ctx, err))
	sp.End()
	return err
}

// attemptOutcome labels an attempt span's result. A hedge loser — its
// sibling won and fetchSim canceled the race context — is "cancelled", the
// shape the stitched export shows for work the gateway deliberately
// abandoned; everything else is "ok", "deadline" or "error".
func attemptOutcome(ctx context.Context, err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled), errors.Is(ctx.Err(), context.Canceled):
		return "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "error"
	}
}

// shardOutcome classifies an upstream error for the shard's breaker: only
// path failures (transport errors, 5xx) count against it. Rejections the
// shard meant (4xx, including queue-full 429s) and cancellations say
// nothing about its health.
func shardOutcome(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return resilience.Ignore
	}
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Status < 500 {
		return resilience.Ignore
	}
	return err
}

// walk runs call against key's ring candidates owner-first, one attempt
// per candidate whose breaker admits it, and returns the shard that
// answered. A 404 walks on without counting a failover: the shard is
// healthy, just not the holder of a job that landed on a successor while
// its owner was down. Any other 4xx except 429 is the shard rejecting the
// request itself — every shard would — so it passes through. 5xx,
// transport errors and injected faults fail over. With every candidate
// spent, a 404 is the answer when a shard gave one, else the first error.
func (g *Gateway) walk(ctx context.Context, key, span string, call func(context.Context, *shard) error) (*shard, error) {
	var firstErr, notFound error
	n, failed := 0, false
	for _, idx := range g.ring.Successors(key) {
		sh := g.shards[idx]
		done, err := sh.brk.Allow()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if failed {
			g.failovers.Inc()
		}
		err = g.attempt(ctx, try{span: span, sh: sh, n: n, failover: n > 0}, done, func(actx context.Context) error {
			return call(actx, sh)
		})
		n++
		var ae *client.APIError
		switch {
		case err == nil:
			return sh, nil
		case errors.As(err, &ae) && ae.Status == http.StatusNotFound:
			if notFound == nil {
				notFound = err
			}
			failed = false
			continue
		case errors.As(err, &ae) && ae.Status < 500 && ae.Status != http.StatusTooManyRequests:
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
		failed = true
		if ctx.Err() != nil {
			break
		}
	}
	if notFound != nil {
		return nil, notFound
	}
	return nil, firstErr
}

// fanOut runs fn(i) for every i < n, each on its own goroutine, and
// returns once all have returned.
func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// --- simulate routing ---

// simResult is one successfully proxied simulation: the shard's exact
// served bytes plus enough header state to reproduce them.
type simResult struct {
	body    []byte
	outcome client.CacheOutcome
	shard   *shard
}

func (g *Gateway) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req serve.SimulateRequest
	if _, ok := g.shell.BeginSim(w, r, &req); !ok {
		return
	}
	key, err := serve.CanonicalKey(req)
	if err != nil {
		g.shell.WriteError(w, err)
		return
	}
	ctx, cancel := g.shell.RequestContext(r, req.TimeoutMs)
	defer cancel()

	if r.Header.Get(serve.CacheOnlyHeader) != "" {
		// A probe stays a probe: ask only the owner, never compute.
		owner := g.shards[g.ring.Owner(key)]
		body, outcome, ok, err := probeCache(ctx, owner, req)
		if err == nil && !ok {
			err = serve.ErrCacheMiss
		}
		if err != nil {
			g.shell.WriteError(w, err)
			return
		}
		w.Header().Set(serve.ShardHeader, owner.name)
		serve.WriteResult(w, body, string(outcome))
		return
	}

	res, err := g.fetchSim(ctx, req, key)
	if err != nil {
		g.shell.WriteError(w, err)
		return
	}
	w.Header().Set(serve.ShardHeader, res.shard.name)
	serve.WriteResult(w, res.body, string(res.outcome))
}

// probeCache asks owner's cache for req with a cache-only request, recorded
// as a gw.probe span.
func probeCache(ctx context.Context, owner *shard, req serve.SimulateRequest) ([]byte, client.CacheOutcome, bool, error) {
	sp, ctx := stats.StartSpan(ctx, "gw.probe", "cluster")
	sp.SetAttr("shard", "shard-"+strconv.Itoa(owner.idx))
	body, outcome, ok, err := owner.client.CacheProbe(ctx, req)
	sp.SetAttr("hit", strconv.FormatBool(err == nil && ok))
	sp.End()
	return body, outcome, ok, err
}

// fetchSim serves one simulation through the ring: the owner first,
// hedged onto the next shard when the owner is slower than the hedge
// delay, failed over along the ring (with a peer cache probe back to the
// owner) when an attempt errors. The first success wins; an attempt is
// only counted against a shard's breaker when it actually reached it.
func (g *Gateway) fetchSim(ctx context.Context, req serve.SimulateRequest, key string) (simResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	order := g.ring.Successors(key)
	owner := g.shards[order[0]]

	type attemptOut struct {
		res    simResult
		err    error
		hedged bool
	}
	results := make(chan attemptOut, len(order))
	next, pending, attempt := 0, 0, 0
	var lastOpen error
	// launch starts the next candidate whose breaker admits it; failover
	// marks attempts triggered by a predecessor's failure (they may be
	// answered from the owner's cache), hedged marks latency hedges.
	launch := func(failover, hedged bool) bool {
		for next < len(order) {
			sh := g.shards[order[next]]
			next++
			done, err := sh.brk.Allow()
			if err != nil {
				lastOpen = err
				continue
			}
			t := try{span: "gw.attempt", sh: sh, n: attempt, failover: failover, hedged: hedged}
			attempt++
			pending++
			go func() {
				res, err := g.attemptSim(ctx, t, owner, req, done)
				results <- attemptOut{res: res, err: err, hedged: hedged}
			}()
			return true
		}
		return false
	}
	if !launch(false, false) {
		return simResult{}, lastOpen
	}
	var hedgeTimer <-chan time.Time
	if d := g.hedgeDelay(); d > 0 && len(order) > 1 {
		hedgeTimer = time.After(d)
	}
	var firstErr error
	for {
		select {
		case o := <-results:
			pending--
			if o.err == nil {
				if o.hedged {
					g.hedgeWins.Inc()
				}
				return o.res, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if launch(true, false) {
				g.failovers.Inc()
				continue
			}
			if pending == 0 {
				return simResult{}, firstErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if launch(false, true) {
				g.hedges.Inc()
			}
		case <-ctx.Done():
			return simResult{}, ctx.Err()
		}
	}
}

// attemptSim is one simulate attempt. On a failover attempt to a
// non-owner, the owner's cache is probed first: a shard whose compute path
// is broken (breaker open, serving bounded-stale) still answers probes, and
// a dead one fails them fast — either way a failover shard never
// recomputes a result the cluster already holds.
func (g *Gateway) attemptSim(ctx context.Context, t try, owner *shard, req serve.SimulateRequest, done func(error)) (simResult, error) {
	var res simResult
	err := g.attempt(ctx, t, done, func(ctx context.Context) error {
		if t.failover && t.sh != owner {
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			body, outcome, ok, err := probeCache(pctx, owner, req)
			cancel()
			if err == nil && ok {
				g.probeHits.Inc()
				stats.SpanFrom(ctx).SetAttr("probeHit", "true")
				// t.sh itself was never called, so its breaker slot is
				// released unjudged; attempt's own done call is then a
				// no-op.
				done(resilience.Ignore)
				res = simResult{body: body, outcome: outcome, shard: owner}
				return nil
			}
		}
		t0 := time.Now()
		body, outcome, err := t.sh.client.SimulateRaw(ctx, req)
		if err != nil {
			return err
		}
		g.proxyDur.Observe(int64(time.Since(t0)))
		res = simResult{body: body, outcome: outcome, shard: t.sh}
		return nil
	})
	return res, err
}

// hedgeDelay resolves the current hedge delay: fixed when configured,
// adaptive (observed p99 of proxied simulate latency, floored at
// minHedge) by default, zero = hedging off for this request.
func (g *Gateway) hedgeDelay() time.Duration {
	switch {
	case g.opts.HedgeAfter < 0:
		return 0
	case g.opts.HedgeAfter > 0:
		return g.opts.HedgeAfter
	}
	snap := g.proxyDur.Snapshot()
	if snap.Count < HedgeWarmup {
		return 0
	}
	return max(time.Duration(snap.Quantile(0.99)), minHedge)
}

// --- arena routing ---

// handleArena proxies a replacement-policy race to the shard owning its
// content address, walking the ring when a shard errors. Reports are
// byte-identical on every shard (the race is deterministic and every
// daemon pins the same single-frame geometry), so failover never changes a
// number — only which shard's arena cache warms up. No hedging: a race is
// orders of magnitude heavier than a simulate call, and doubling one
// deliberately is the wrong trade.
func (g *Gateway) handleArena(w http.ResponseWriter, r *http.Request) {
	var req serve.ArenaRequest
	body, ok := g.shell.BeginSim(w, r, &req)
	if !ok {
		return
	}
	_, key, err := serve.ArenaKey(req)
	if err != nil {
		g.shell.WriteError(w, err)
		return
	}
	if serve.AsyncRequested(r) {
		g.routeJobSubmit(w, r, serve.JobKindArena, body)
		return
	}
	ctx, cancel := g.shell.RequestContext(r, req.TimeoutMs)
	defer cancel()

	var report []byte
	var outcome client.CacheOutcome
	sh, err := g.walk(ctx, key, "gw.attempt", func(ctx context.Context, sh *shard) (err error) {
		report, outcome, err = sh.client.ArenaRaw(ctx, req)
		return err
	})
	if err != nil {
		g.shell.WriteError(w, err)
		return
	}
	w.Header().Set(serve.ShardHeader, sh.name)
	serve.WriteResult(w, report, string(outcome))
}

// --- sweep fan-out ---

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req serve.SweepRequest
	body, ok := g.shell.BeginSim(w, r, &req)
	if !ok {
		return
	}
	keys, timeoutMs, err := serve.ResolveSweep(req, maxSweepItems, "gateway", serve.CanonicalKey)
	if err != nil {
		g.shell.WriteError(w, err)
		return
	}
	if serve.AsyncRequested(r) {
		g.routeJobSubmit(w, r, serve.JobKindSweep, body)
		return
	}
	ctx, cancel := g.shell.RequestContext(r, timeoutMs)
	defer cancel()

	runs, anyStale, err := g.fanOutSweep(ctx, req.Items, keys)
	if err != nil {
		g.shell.WriteError(w, err)
		return
	}
	if anyStale {
		w.Header().Set("Warning", `110 tcord "response includes stale items"`)
	}
	g.shell.WriteJSON(w, serve.SweepResponse{Runs: runs})
}

// sweepChunk is one sub-sweep: a run of same-owner items, at most
// serve.MaxSweepItems long, remembering each item's global index.
type sweepChunk struct {
	ownerIdx int
	global   []int
}

// fanOutSweep distributes items across their owning shards as sub-sweeps
// and reassembles the runs in global item order. A failed sub-sweep —
// shard death mid-sweep included — degrades to item-by-item routing with
// full failover, so a sweep only fails when an item is unservable by
// every shard (or genuinely invalid). When items fail, the error is the
// one of the lowest failing item, whatever order the chunks ran in.
func (g *Gateway) fanOutSweep(ctx context.Context, items []serve.SimulateRequest, keys []string) ([]json.RawMessage, bool, error) {
	// Group by owner in shard-index order, preserving item order within
	// each owner.
	byOwner := make([][]int, len(g.shards))
	for i, key := range keys {
		o := g.ring.Owner(key)
		byOwner[o] = append(byOwner[o], i)
	}
	var chunks []sweepChunk
	for o, globals := range byOwner {
		for len(globals) > 0 {
			n := min(len(globals), serve.MaxSweepItems)
			chunks = append(chunks, sweepChunk{ownerIdx: o, global: globals[:n]})
			globals = globals[n:]
		}
	}

	runs := make([]json.RawMessage, len(items))
	var anyStale atomic.Bool
	errs := make([]error, len(chunks))
	failed := make([]int, len(chunks)) // global index of the chunk's failing item
	fanOut(len(chunks), func(c int) {
		ch := chunks[c]
		sub := make([]serve.SimulateRequest, len(ch.global))
		for i, gi := range ch.global {
			sub[i] = items[gi]
		}
		got, hdr, err := g.subSweep(ctx, g.shards[ch.ownerIdx], sub)
		if err == nil && len(got) != len(sub) {
			err = fmt.Errorf("cluster: shard %s returned %d runs for %d items",
				g.shards[ch.ownerIdx].name, len(got), len(sub))
		}
		if err == nil {
			for i, gi := range ch.global {
				runs[gi] = got[i]
			}
			if hdr.Get("Warning") != "" {
				anyStale.Store(true)
			}
			return
		}
		// The sub-sweep died (shard killed mid-sweep, breaker open,
		// chaos fault). Recover item by item through the full
		// hedge/failover path.
		for i, gi := range ch.global {
			g.fallback.Inc()
			res, err := g.fetchSim(ctx, sub[i], keys[gi])
			if err != nil {
				errs[c], failed[c] = fmt.Errorf("item %d: %w", gi, err), gi
				return
			}
			// Simulate bodies end in the canonical newline; runs
			// embed without it, exactly as the shard's own sweep
			// handler trims.
			runs[gi] = json.RawMessage(string(res.body[:len(res.body)-1]))
			if res.outcome == "stale" {
				anyStale.Store(true)
			}
		}
	})
	// A chunk falls back item by item in order and stops at its first
	// failure, so every item below a chunk's failing index succeeded: the
	// lowest failing index over all chunks is the sweep's lowest failing
	// item.
	first := -1
	for c, err := range errs {
		if err != nil && (first < 0 || failed[c] < failed[first]) {
			first = c
		}
	}
	if first >= 0 {
		err := errs[first]
		var ge *serve.APIError
		var ae *client.APIError
		if errors.As(err, &ge) || errors.As(err, &ae) {
			return nil, false, err
		}
		return nil, false, fmt.Errorf("cluster: sweep failed: %w", err)
	}
	return runs, anyStale.Load(), nil
}

// subSweep sends one sub-sweep to its owner under the shard's breaker, as
// a gw.subsweep attempt carrying the chunk size — the span whose
// traceparent the shard's own sweep spans stitch under.
func (g *Gateway) subSweep(ctx context.Context, sh *shard, items []serve.SimulateRequest) (runs []json.RawMessage, hdr http.Header, err error) {
	done, err := sh.brk.Allow()
	if err != nil {
		return nil, nil, err
	}
	err = g.attempt(ctx, try{span: "gw.subsweep", sh: sh, items: len(items)}, done, func(ctx context.Context) (err error) {
		runs, hdr, err = sh.client.SweepRaw(ctx, serve.SweepRequest{Items: items})
		return err
	})
	return runs, hdr, err
}
