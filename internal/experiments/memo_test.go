package experiments

import (
	"fmt"
	"sync"
	"testing"

	"tcor/internal/stats"
)

func TestMemoBoundedConcurrency(t *testing.T) {
	// Hammer ten keys from many goroutines: no races (run under -race), no
	// lost results, and each key computed exactly once.
	var m memo[int]
	hits, misses := &stats.Counter{}, &stats.Counter{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%10)
				want := (g + i) % 10
				v, err := m.get(key, hits, misses, func() (int, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("get(%s) = %d, %v; want %d", key, v, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if hits.Load()+misses.Load() != 400 {
		t.Fatalf("hits+misses = %d, want 400", hits.Load()+misses.Load())
	}
	if got := misses.Load(); got != 10 {
		t.Fatalf("misses = %d, want 10 (one compute per key)", got)
	}
}
