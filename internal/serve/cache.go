package serve

import (
	"container/list"
	"context"
	"sync"
	"time"

	"tcor/internal/gpu"
	"tcor/internal/resilience"
	"tcor/internal/stats"
)

// cached is one finished simulation as the cache stores it: the result
// itself (so a later request can re-verify invariants without re-running)
// and its canonical encoding (so hits, coalesced waiters and fresh runs all
// serve the identical bytes).
type cached struct {
	res  *gpu.Result
	body []byte
}

// resultCache is the serving-layer mirror of the paper's replacement-policy
// theme: a content-addressed store of finished simulations (spec+config
// hash -> gpu.Result) with a bounded LRU eviction policy, fused with a
// singleflight table so concurrent identical requests collapse into one
// simulation. The design mirrors experiments/memo.go — an in-flight entry
// is a cell with a done channel; waiters block on the cell, not on a lock —
// but completed entries are bounded and recency-ordered instead of cached
// forever: a daemon's keyspace is open-ended where the Runner's grid is
// finite.
//
// Error results are never cached: a failure (queue-full, deadline, a
// panicking simulation) is not a deterministic function of the key, so the
// entry is dropped and the next request retries.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // completed entries, front = most recently used
	m   map[string]*cacheEntry

	// ttl bounds an entry's freshness (0 = fresh forever); maxStale bounds
	// how far past the TTL an entry may still be served when the caller asks
	// for graceful degradation (0 = never). clock makes expiry testable.
	ttl, maxStale time.Duration
	clock         resilience.Clock

	// byTenant charges every resident entry to the tenant whose miss
	// computed it. Eviction prefers entries of tenants over their
	// configured CacheShare, so one tenant's burst evicts its own tail
	// before touching anyone else's entries.
	byTenant map[string]*tenantCharge
	defName  string // the anonymous tenant's name, the fallback charge

	hits, misses, coalesced, evictions *stats.Counter
	expired, staleServes, retained     *stats.Counter
	size                               *stats.Gauge
}

// tenantCharge is one tenant's slice of a cache: its live entry count (the
// gauge mirrors it for /metrics) and the share-derived limit beyond which
// its entries become the preferred eviction victims (0 = cap unbounded, no
// preference).
type tenantCharge struct {
	limit     int
	count     int
	size      *stats.Gauge
	evictions *stats.Counter
}

// cacheEntry is one key's cell. done is closed exactly once, after which
// val/err/completedAt are immutable; elem is non-nil only while the
// completed entry sits in the LRU list (both guarded by resultCache.mu).
//
// prev, on an in-flight recompute of a TTL-expired key, is the expired
// entry being replaced: it is held aside until the recompute resolves, so
// a failed recompute (a chaos fault, a breaker probe, a simulator error)
// restores the last-good value instead of losing it — exactly the entry
// maxStale degraded serving exists to offer.
type cacheEntry struct {
	key         string
	tenant      string // tenant name charged for the entry (the miss leader's)
	elem        *list.Element
	done        chan struct{}
	val         cached
	err         error
	completedAt time.Time
	prev        *cacheEntry
}

// newResultCache builds a cache bounded to capacity entries (capacity <= 0
// means unbounded) whose entries stay fresh for ttl (0 = forever) and may be
// served up to maxStale past that on request, metering into reg under the
// given prefix ("serve.cache" for the simulate cache, "serve.arena.cache"
// for the arena's — two instances on one registry must not alias counters).
func newResultCache(capacity int, ttl, maxStale time.Duration, clock resilience.Clock, ts *TenantSet, reg *stats.Registry, prefix string) *resultCache {
	if clock == nil {
		clock = resilience.Wall()
	}
	if ts == nil {
		ts = DefaultTenants()
	}
	c := &resultCache{
		cap:         capacity,
		ttl:         ttl,
		maxStale:    maxStale,
		clock:       clock,
		ll:          list.New(),
		m:           make(map[string]*cacheEntry),
		byTenant:    make(map[string]*tenantCharge),
		defName:     ts.Default().Name,
		hits:        reg.Counter(prefix + ".hits"),
		misses:      reg.Counter(prefix + ".misses"),
		coalesced:   reg.Counter(prefix + ".coalesced"),
		evictions:   reg.Counter(prefix + ".evictions"),
		expired:     reg.Counter(prefix + ".expired"),
		staleServes: reg.Counter(prefix + ".staleServes"),
		retained:    reg.Counter(prefix + ".retained"),
		size:        reg.Gauge(prefix + ".size"),
	}
	for _, t := range ts.Tenants() {
		tc := &tenantCharge{
			size:      reg.Gauge(prefix + ".tenant." + t.Name + ".size"),
			evictions: reg.Counter(prefix + ".tenant." + t.Name + ".evictions"),
		}
		if capacity > 0 {
			// The share-derived limit, at least one entry: a tenant with a
			// tiny share must still be able to keep its latest result warm.
			tc.limit = int(t.CacheShare * float64(capacity))
			if tc.limit < 1 {
				tc.limit = 1
			}
		}
		c.byTenant[t.Name] = tc
	}
	return c
}

// chargeFor resolves a tenant name to its charge account, falling back to
// the anonymous tenant's for names outside the roster (a job resumed under
// a changed config).
func (c *resultCache) chargeFor(name string) *tenantCharge {
	if tc, ok := c.byTenant[name]; ok {
		return tc
	}
	return c.byTenant[c.defName]
}

// chargeLocked adds an LRU-resident entry to its tenant's account (c.mu held).
func (c *resultCache) chargeLocked(e *cacheEntry) {
	tc := c.chargeFor(e.tenant)
	tc.count++
	tc.size.Add(1)
}

// unchargeLocked removes a no-longer-resident entry from its tenant's
// account (c.mu held).
func (c *resultCache) unchargeLocked(e *cacheEntry) {
	tc := c.chargeFor(e.tenant)
	tc.count--
	tc.size.Add(-1)
}

// tenantNameFrom names the tenant a computed entry is charged to: the
// resolved tenant on the request context, else the anonymous tenant.
func (c *resultCache) tenantNameFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantSpecKey{}).(*TenantSpec); ok {
		return t.Name
	}
	return c.defName
}

// outcome classifies how a get was served, for the X-Tcord-Cache header.
type outcome string

const (
	outcomeHit       outcome = "hit"
	outcomeMiss      outcome = "miss"
	outcomeCoalesced outcome = "coalesced"
	// outcomeStale marks an expired entry served anyway because the caller
	// allowed degradation (the simulate path's circuit breaker is open) and
	// the entry is within the maxStale bound. Responses carry a Warning
	// header alongside it.
	outcomeStale outcome = "stale"
)

// get returns the cached value for key, computing it at most once across
// concurrent callers. The first caller of an absent key becomes the leader
// and runs compute; everyone else waits for the leader's outcome (or their
// own context, whichever ends first). compute runs outside the cache lock.
//
// With a TTL set, a completed entry older than it is normally dropped and
// recomputed — unless allowStale (nil = never) says the caller prefers
// degradation and the entry is within maxStale past the TTL, in which case
// the expired bytes are served as outcomeStale.
func (c *resultCache) get(ctx context.Context, key string, allowStale func() bool, compute func() (cached, error)) (cached, outcome, error) {
	var prev *cacheEntry
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		select {
		case <-e.done: // completed
			age := c.clock.Now().Sub(e.completedAt)
			switch {
			case c.ttl <= 0 || age <= c.ttl: // fresh: a pure cache hit
				c.ll.MoveToFront(e.elem)
				c.mu.Unlock()
				c.hits.Inc()
				return e.val, outcomeHit, e.err
			case allowStale != nil && allowStale() && age <= c.ttl+c.maxStale:
				// Expired, but a degraded answer beats none. Keep the LRU
				// position: stale serving must not pin a dying entry hot.
				c.mu.Unlock()
				c.staleServes.Inc()
				return e.val, outcomeStale, e.err
			default:
				// Expired: recompute as the leader below, holding the old
				// entry aside until the replacement lands. A failed
				// recompute restores it — the last-good value is exactly
				// what maxStale degraded serving should still offer.
				c.ll.Remove(e.elem)
				e.elem = nil
				delete(c.m, e.key)
				c.unchargeLocked(e)
				c.size.Set(int64(c.ll.Len()))
				c.expired.Inc()
				prev = e
			}
		default: // in flight
			if p := e.prev; p != nil && allowStale != nil && allowStale() &&
				c.clock.Now().Sub(p.completedAt) <= c.ttl+c.maxStale {
				// A recompute is running but the caller prefers degradation:
				// serve the retained last-good value instead of blocking on
				// a leader that is likely failing behind an open breaker.
				c.mu.Unlock()
				c.staleServes.Inc()
				return p.val, outcomeStale, p.err
			}
			// Collapse onto the leader.
			c.mu.Unlock()
			c.coalesced.Inc()
			select {
			case <-e.done:
				return e.val, outcomeCoalesced, e.err
			case <-ctx.Done():
				return cached{}, outcomeCoalesced, ctx.Err()
			}
		}
	}
	e := &cacheEntry{key: key, tenant: c.tenantNameFrom(ctx), done: make(chan struct{}), prev: prev}
	c.m[key] = e
	c.mu.Unlock()
	c.misses.Inc()

	// If compute panics, the panic keeps unwinding (the handler middleware
	// counts and answers it) but the cell must still resolve: waiters get
	// the error and the key is dropped so a retry recomputes instead of
	// hanging on a cell that will never close.
	completed := false
	defer func() {
		if !completed {
			e.err = errComputePanicked
			c.complete(e)
		}
	}()
	e.val, e.err = compute()
	completed = true
	c.complete(e)
	return e.val, outcomeMiss, e.err
}

// errComputePanicked is what coalesced waiters observe when the leader's
// simulation panicked out from under them.
var errComputePanicked = &APIError{Status: 500, Code: "internal_panic",
	Message: "simulation panicked"}

// complete publishes the leader's outcome: successes enter the LRU (evicting
// the least recently used completed entries beyond capacity), failures are
// forgotten so later requests retry. Waiters already holding the entry still
// observe val/err through the closed channel either way.
//
// A failed recompute of an expired key restores the retained predecessor at
// the cold end of the LRU (retention must not make a dying entry hot), so a
// later degraded-mode get can still serve the last-good value; a successful
// recompute drops it.
func (c *resultCache) complete(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.completedAt = c.clock.Now()
	close(e.done)
	if e.err != nil {
		delete(c.m, e.key)
		if p := e.prev; p != nil {
			c.m[p.key] = p
			p.elem = c.ll.PushBack(p)
			c.chargeLocked(p)
			c.retained.Inc()
			c.evictLocked()
		}
		return
	}
	e.prev = nil
	e.elem = c.ll.PushFront(e)
	c.chargeLocked(e)
	c.evictLocked()
}

// evictLocked trims the LRU to capacity and republishes the size gauge
// (c.mu held). Victim selection is proportional-share aware: the least
// recently used entry of a tenant over its CacheShare limit goes first, so
// a flooding tenant consumes its own tail; only when no tenant is over its
// share does plain LRU apply.
func (c *resultCache) evictLocked() {
	for c.cap > 0 && c.ll.Len() > c.cap {
		oldest := c.victimLocked()
		victim := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.m, victim.key)
		c.unchargeLocked(victim)
		c.evictions.Inc()
		c.chargeFor(victim.tenant).evictions.Inc()
	}
	c.size.Set(int64(c.ll.Len()))
}

// victimLocked picks the eviction victim: scanning from the cold end, the
// first entry whose tenant is over its share limit; the coldest entry when
// every tenant is within its share.
func (c *resultCache) victimLocked() *list.Element {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if tc := c.chargeFor(e.tenant); tc.limit > 0 && tc.count > tc.limit {
			return el
		}
	}
	return c.ll.Back()
}

// peek reports whether key has a completed entry servable right now without
// computing: fresh entries are hits, expired-but-within-maxStale entries are
// stale serves (the peer-probe caller is by definition in a degraded path).
// In-flight recomputes and absent keys are misses — a probe never waits.
func (c *resultCache) peek(key string) (cached, outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return cached{}, outcomeMiss, false
	}
	select {
	case <-e.done:
	default:
		return cached{}, outcomeMiss, false
	}
	if e.err != nil {
		return cached{}, outcomeMiss, false
	}
	age := c.clock.Now().Sub(e.completedAt)
	switch {
	case c.ttl <= 0 || age <= c.ttl:
		c.ll.MoveToFront(e.elem)
		c.hits.Inc()
		return e.val, outcomeHit, true
	case c.maxStale > 0 && age <= c.ttl+c.maxStale:
		c.staleServes.Inc()
		return e.val, outcomeStale, true
	}
	return cached{}, outcomeMiss, false
}

// len returns the number of completed entries (tests).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
