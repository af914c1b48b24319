package experiments

import (
	"sync"

	"tcor/internal/stats"
)

// memo is a per-key, singleflight-style memoization table. The first caller
// of a key computes the value while holding only that key's cell; every
// other caller — of the same key or any other — proceeds without touching
// it. Concurrent callers of the same key block until the first compute
// finishes and then share its result, so each key is computed exactly once
// even under contention.
//
// By default results (including errors, which are deterministic functions
// of the key here) are cached forever: the figure harness's keyspace is the
// benchmark/configuration grid, which is finite and re-read many times. A
// long-running host (the tcord daemon, a sweep service) passes a positive
// capacity instead, which bounds the table to that many completed entries
// with least-recently-used eviction.
// In-flight cells are never evicted — waiters hold them by pointer and the
// leader still publishes into them — and eviction only drops the table's
// reference, so an evicted-then-re-requested key simply recomputes.
//
// This replaces the Runner's original single coarse mutex, which serialized
// scene generation and full-system simulation of *different* benchmarks
// behind one lock.
type memo[V any] struct {
	mu    sync.Mutex
	m     map[string]*memoCell[V]
	clock int64 // logical access time, guarded by mu
}

type memoCell[V any] struct {
	done    chan struct{} // closed once val/err are final
	val     V
	err     error
	lastUse int64 // guarded by memo.mu
}

// completed reports whether the cell's compute has finished (memo.mu held
// or not — the channel close is the synchronization point).
func (c *memoCell[V]) completed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// get returns the memoized value for key, running compute at most once per
// live key. compute runs outside the map lock, so distinct keys compute
// concurrently. capacity, when positive, bounds the table to that many
// entries by evicting the least recently used completed cells at insert
// time. hits/misses/evictions, when non-nil, meter the table: a miss is the
// one call that computes; coalesced waiters count as hits (they reuse the
// result); evictions count capacity-displaced entries.
func (m *memo[V]) get(key string, capacity int, hits, misses, evictions *stats.Counter, compute func() (V, error)) (V, error) {
	c, leader := m.claim(key, capacity, hits, misses, evictions)
	if leader {
		c.resolve(compute())
	}
	return c.wait()
}

// claim returns key's cell. leader reports that the call created it: the
// caller then owns the computation and must resolve the cell, and the call
// is metered as a miss. Otherwise the cell belongs to an earlier caller
// (completed or in flight) and the call is metered as a hit. Claiming
// several keys before computing them together is how one computation fills
// several keys while concurrent get calls of those keys wait for it.
func (m *memo[V]) claim(key string, capacity int, hits, misses, evictions *stats.Counter) (c *memoCell[V], leader bool) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[string]*memoCell[V])
	}
	m.clock++
	if c, ok := m.m[key]; ok {
		c.lastUse = m.clock
		m.mu.Unlock()
		hits.Inc()
		return c, false
	}
	c = &memoCell[V]{done: make(chan struct{}), lastUse: m.clock}
	if capacity > 0 {
		for len(m.m) >= capacity {
			if !m.evictLRULocked(c) {
				break // everything else is in flight; admit over capacity
			}
			evictions.Inc()
		}
	}
	m.m[key] = c
	m.mu.Unlock()
	misses.Inc()
	return c, true
}

// resolve publishes the leader's result and releases the cell's waiters.
func (c *memoCell[V]) resolve(val V, err error) {
	c.val, c.err = val, err
	close(c.done)
}

// wait blocks until the cell is resolved and returns its result.
func (c *memoCell[V]) wait() (V, error) {
	<-c.done
	return c.val, c.err
}

// evictLRULocked drops the least recently used completed cell other than
// keep, reporting whether one existed. Callers hold m.mu.
func (m *memo[V]) evictLRULocked(keep *memoCell[V]) bool {
	var victimKey string
	var victim *memoCell[V]
	for k, c := range m.m {
		if c == keep || !c.completed() {
			continue
		}
		if victim == nil || c.lastUse < victim.lastUse {
			victimKey, victim = k, c
		}
	}
	if victim == nil {
		return false
	}
	delete(m.m, victimKey)
	return true
}

// size returns the number of mapped cells, in flight included (tests).
func (m *memo[V]) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
