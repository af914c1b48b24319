package serve

import (
	"context"
	"errors"
	"testing"

	"tcor/internal/stats"
)

// cacheFixture builds a result cache on a private registry.
func cacheFixture(capacity int) (*resultCache, *stats.Registry) {
	reg := stats.NewRegistry()
	return newResultCache(capacity, DefaultTenants(), reg, "serve.cache"), reg
}

func mustGet(t *testing.T, c *resultCache, key string, compute func() (cached, error)) (cached, outcome) {
	t.Helper()
	val, how, err := c.get(context.Background(), key, compute)
	if err != nil {
		t.Fatalf("get(%s): %v", key, err)
	}
	return val, how
}

// TestFailedComputeIsNotCached pins "errors are never cached": a failed
// compute returns its error and leaves no entry behind, and the next get
// recomputes the key as a miss.
func TestFailedComputeIsNotCached(t *testing.T) {
	c, _ := cacheFixture(8)

	boom := errors.New("injected")
	if _, _, err := c.get(context.Background(), "k", func() (cached, error) {
		return cached{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed compute returned %v, want the compute error", err)
	}
	if got := c.len(); got != 0 {
		t.Fatalf("cache holds %d completed entries after a failure, want 0", got)
	}

	v := cached{body: []byte("v\n")}
	if val, how := mustGet(t, c, "k", func() (cached, error) { return v, nil }); how != outcomeMiss || string(val.body) != "v\n" {
		t.Fatalf("retry after the failure = (%q, %q), want a fresh miss", val.body, how)
	}
	if val, how := mustGet(t, c, "k", nil); how != outcomeHit || string(val.body) != "v\n" {
		t.Fatalf("get after the retry = (%q, %q), want a hit", val.body, how)
	}
}

// TestWaiterCoalescesOntoFailingLeader pins singleflight on failure: a
// caller that arrives while a compute is in flight attaches to it instead
// of leading its own, observes the leader's error, and no entry is left.
func TestWaiterCoalescesOntoFailingLeader(t *testing.T) {
	c, reg := cacheFixture(8)

	entered := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("injected")
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.get(context.Background(), "k", func() (cached, error) {
			close(entered)
			<-release
			return cached{}, boom
		})
		leader <- err
	}()
	<-entered

	waiter := make(chan error, 1)
	go func() {
		_, how, err := c.get(context.Background(), "k", func() (cached, error) {
			t.Error("coalescing caller must not become a leader")
			return cached{}, nil
		})
		if how != outcomeCoalesced {
			t.Errorf("concurrent get served %q, want coalesced", how)
		}
		waiter <- err
	}()
	// Only release the leader once the second caller has attached to it.
	waitFor(t, func() bool {
		return reg.Snapshot().Get("serve.cache.coalesced") == 1
	})
	close(release)
	if err := <-leader; !errors.Is(err, boom) {
		t.Fatalf("leader returned %v, want the compute error", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("coalesced waiter returned %v, want the leader's error", err)
	}
	if got := c.len(); got != 0 {
		t.Fatalf("cache holds %d completed entries after a failure, want 0", got)
	}
}

// TestPeek covers the cache-only probe the gateway's peer-aware lookup
// uses: completed entries hit, and absent or in-flight keys miss without
// waiting.
func TestPeek(t *testing.T) {
	c, reg := cacheFixture(8)

	if _, ok := c.peek("k"); ok {
		t.Fatal("peek hit an absent key")
	}
	mustGet(t, c, "k", func() (cached, error) { return cached{body: []byte("v\n")}, nil })
	if val, ok := c.peek("k"); !ok || string(val.body) != "v\n" {
		t.Fatalf("peek = (%q, %v), want a hit", val.body, ok)
	}
	if got := reg.Snapshot().Get("serve.cache.hits"); got != 1 {
		t.Fatalf("serve.cache.hits = %d after one peek hit, want 1", got)
	}

	// In-flight keys never make a probe wait.
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.get(context.Background(), "k2", func() (cached, error) {
			close(entered)
			<-release
			return cached{body: []byte("x\n")}, nil
		})
	}()
	<-entered
	if _, ok := c.peek("k2"); ok {
		t.Fatal("peek returned an in-flight entry")
	}
	close(release)
}
