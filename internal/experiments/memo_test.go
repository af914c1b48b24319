package experiments

import (
	"fmt"
	"sync"
	"testing"

	"tcor/internal/stats"
)

// meters builds a counter triple for direct memo tests.
func meters() (hits, misses, evictions *stats.Counter) {
	return &stats.Counter{}, &stats.Counter{}, &stats.Counter{}
}

func TestMemoCapacityBoundsTable(t *testing.T) {
	var m memo[int]
	hits, misses, ev := meters()
	for i := 0; i < 10; i++ {
		v, err := m.get(fmt.Sprintf("k%d", i), 3, hits, misses, ev, func() (int, error) { return i, nil })
		if err != nil || v != i {
			t.Fatalf("get(k%d) = %d, %v", i, v, err)
		}
	}
	if got := m.size(); got != 3 {
		t.Fatalf("table holds %d entries, want capacity 3", got)
	}
	if got := ev.Load(); got != 7 {
		t.Fatalf("evictions = %d, want 7 (10 inserts into capacity 3)", got)
	}
	if hits.Load() != 0 || misses.Load() != 10 {
		t.Fatalf("hits/misses = %d/%d, want 0/10", hits.Load(), misses.Load())
	}
}

func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	var m memo[string]
	hits, misses, ev := meters()
	get := func(key string) {
		t.Helper()
		if _, err := m.get(key, 2, hits, misses, ev, func() (string, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // touch a: b becomes the LRU victim
	get("c") // evicts b
	missesBefore := misses.Load()
	get("a") // still cached
	if misses.Load() != missesBefore {
		t.Fatal("a was evicted; want b (the least recently used)")
	}
	get("b") // recomputes
	if misses.Load() != missesBefore+1 {
		t.Fatal("b still cached; want it evicted as the LRU entry")
	}
}

func TestMemoNeverEvictsInFlight(t *testing.T) {
	var m memo[int]
	hits, misses, ev := meters()
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.get("slow", 1, hits, misses, ev, func() (int, error) { //nolint:errcheck
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	// The table is at capacity with only an in-flight cell: new keys must
	// be admitted over capacity rather than evicting it.
	if v, err := m.get("other", 1, hits, misses, ev, func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("get(other) = %d, %v", v, err)
	}
	close(release)
	wg.Wait()
	// The slow cell survived: a second get is a hit, not a recompute.
	missesBefore := misses.Load()
	if v, err := m.get("slow", 1, hits, misses, ev, func() (int, error) { return -1, nil }); err != nil || v != 42 {
		t.Fatalf("get(slow) = %d, %v; want the original 42", v, err)
	}
	if misses.Load() != missesBefore {
		t.Fatal("slow was recomputed; the in-flight cell must not be evicted")
	}
}

func TestMemoPurge(t *testing.T) {
	var m memo[int]
	hits, misses, ev := meters()
	for i := 0; i < 4; i++ {
		m.get(fmt.Sprintf("k%d", i), 0, hits, misses, ev, func() (int, error) { return i, nil }) //nolint:errcheck
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.get("inflight", 0, hits, misses, ev, func() (int, error) { //nolint:errcheck
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	if n := m.purge(ev); n != 4 {
		t.Fatalf("purge dropped %d entries, want 4 (the in-flight cell survives)", n)
	}
	if got := ev.Load(); got != 4 {
		t.Fatalf("evictions = %d, want 4 after purge", got)
	}
	if got := m.size(); got != 1 {
		t.Fatalf("table holds %d entries after purge, want the 1 in-flight cell", got)
	}
	close(release)
	wg.Wait()
}

func TestMemoBoundedConcurrency(t *testing.T) {
	// Hammer a tiny capacity from many goroutines: no races (run under
	// -race), no lost results, and the bound holds afterwards.
	var m memo[int]
	hits, misses, ev := meters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%10)
				want := (g + i) % 10
				v, err := m.get(key, 4, hits, misses, ev, func() (int, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("get(%s) = %d, %v; want %d", key, v, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.size(); got > 4 {
		t.Fatalf("table holds %d entries, want <= capacity 4", got)
	}
	if hits.Load()+misses.Load() != 400 {
		t.Fatalf("hits+misses = %d, want 400", hits.Load()+misses.Load())
	}
}

func TestRunnerPurgeMemoAndMetering(t *testing.T) {
	r := NewRunner()
	r.Frames = 1
	if _, err := r.Scene("CCS"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Binning("CCS"); err != nil {
		t.Fatal(err)
	}
	// Binning reads the memoized scene and keeps no table of its own.
	if n := r.PurgeMemo(); n != 1 {
		t.Fatalf("PurgeMemo dropped %d entries, want 1 (the scene)", n)
	}
	snap := r.Metrics().Snapshot()
	if got := snap.Get("memo.scenes.evictions"); got != 1 {
		t.Fatalf("memo.scenes.evictions = %d, want 1", got)
	}
	if got := snap.Get("memo.scenes.hits"); got != 1 {
		t.Fatalf("memo.scenes.hits = %d, want 1 (Binning's scene)", got)
	}
	// The purged scene recomputes on next use.
	missesBefore := r.Metrics().Snapshot().Get("memo.scenes.misses")
	if _, err := r.Scene("CCS"); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics().Snapshot().Get("memo.scenes.misses"); got != missesBefore+1 {
		t.Fatalf("memo.scenes.misses = %d after purge+reuse, want %d", got, missesBefore+1)
	}
}
