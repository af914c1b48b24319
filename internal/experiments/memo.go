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
// Results (including errors, which are deterministic functions of the key
// here) are cached forever: the figure harness's keyspace is the
// benchmark/configuration grid, which is finite and re-read many times, and
// the daemon's arena runner touches only the scene, trace and profile
// tables, keyed by the ten suite aliases.
//
// This replaces the Runner's original single coarse mutex, which serialized
// scene generation and full-system simulation of *different* benchmarks
// behind one lock.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoCell[V]
}

type memoCell[V any] struct {
	done chan struct{} // closed once val/err are final
	val  V
	err  error
}

// get returns the memoized value for key, running compute at most once per
// key. compute runs outside the map lock, so distinct keys compute
// concurrently. hits/misses, when non-nil, meter the table: a miss is the
// one call that computes; coalesced waiters count as hits (they reuse the
// result).
func (m *memo[V]) get(key string, hits, misses *stats.Counter, compute func() (V, error)) (V, error) {
	c, leader := m.claim(key, hits, misses)
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
func (m *memo[V]) claim(key string, hits, misses *stats.Counter) (c *memoCell[V], leader bool) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[string]*memoCell[V])
	}
	if c, ok := m.m[key]; ok {
		m.mu.Unlock()
		hits.Inc()
		return c, false
	}
	c = &memoCell[V]{done: make(chan struct{})}
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
