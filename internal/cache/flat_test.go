package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tcor/internal/trace"
)

// TestFlatLRUMatchesCacheLRU is the differential test of the flat tag
// store: on random read streams over direct-mapped, set-associative and
// fully associative geometries, power-of-two set counts or not, it must
// report the same hit/miss sequence, Stats and set/way contents as Cache
// with NewLRU.
func TestFlatLRUMatchesCacheLRU(t *testing.T) {
	geoms := []Config{
		{Lines: 32, Ways: 1},   // 2 KiB direct-mapped
		{Lines: 32, Ways: 4},   // 2 KiB, 4-way
		{Lines: 1024, Ways: 1}, // 64 KiB direct-mapped
		{Lines: 1024, Ways: 4}, // 64 KiB, 4-way (the texture caches)
		{Lines: 48, Ways: 4},   // 12 sets: modulo by division
		{Lines: 16},            // fully associative
	}
	for _, cfg := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dlines/%dway/seed%d", cfg.Lines, cfg.Ways, seed), func(t *testing.T) {
				flat, err := NewFlatLRU(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := MustNew(cfg, NewLRU())
				rng := rand.New(rand.NewSource(seed))
				hot := rng.Perm(4 * cfg.Lines)[:cfg.Lines/2+1]
				for i := 0; i < 50000; i++ {
					key := uint64(rng.Intn(4 * cfg.Lines))
					if rng.Intn(2) == 0 {
						key = uint64(hot[rng.Intn(len(hot))])
					}
					if got, want := flat.Read(key), ref.Access(trace.Access{Key: trace.Key(key)}).Hit; got != want {
						t.Fatalf("access %d (key %d): hit %v, want %v", i, key, got, want)
					}
				}
				if flat.Stats() != ref.Stats() {
					t.Errorf("stats %+v, want %+v", flat.Stats(), ref.Stats())
				}
				if !slices.Equal(flat.ResidentKeys(), ref.ResidentKeys()) {
					t.Errorf("set/way contents differ")
				}
				if s := ref.Stats(); s.Hits == 0 || s.Misses <= int64(cfg.Lines) {
					t.Fatalf("the stream exercises too little: %+v", s)
				}
			})
		}
	}
}

// TestFlatLRURejectsInvalidGeometry demands Config.Validate's errors for
// invalid geometries, and rejects any index but the modulo one.
func TestFlatLRURejectsInvalidGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{Lines: 0, Ways: 1},
		{Lines: 8, Ways: -1},
		{Lines: 8, Ways: 16},
		{Lines: 12, Ways: 8},
		{Lines: 24, Ways: 2, Index: XORIndex},
	} {
		_, want := cfg.Validate()
		if _, err := NewFlatLRU(cfg); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%+v: error %v, want %v", cfg, err, want)
		}
	}
	if _, err := NewFlatLRU(Config{Lines: 32, Ways: 4, Index: XORIndex}); err == nil {
		t.Error("an XOR-indexed FlatLRU must fail")
	}
	if _, err := NewFlatLRU(Config{Lines: 32, Ways: 4, Index: ModuloIndex}); err != nil {
		t.Errorf("ModuloIndex: %v", err)
	}
}
