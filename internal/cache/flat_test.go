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
// invalid geometries, and rejects any index but the modulo one and a
// WriteBackLRU that does not allocate on writes.
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
	if _, err := NewWriteBackLRU(Config{Lines: 32, Ways: 4}); err == nil {
		t.Error("a write-no-allocate WriteBackLRU must fail")
	}
	if _, err := NewWriteBackLRU(Config{Lines: 12, Ways: 8, WriteAllocate: true}); err == nil {
		t.Error("an invalid WriteBackLRU geometry must fail")
	}
}

// wbGeoms are the geometries the write-back differential tests cover:
// direct-mapped, set-associative with power-of-two and other set counts,
// and fully associative.
var wbGeoms = []Config{
	{Lines: 32, Ways: 1, WriteAllocate: true},
	{Lines: 32, Ways: 4, WriteAllocate: true},
	{Lines: 256, Ways: 4, WriteAllocate: true}, // the Primitive List Cache
	{Lines: 48, Ways: 4, WriteAllocate: true},  // 12 sets
	{Lines: 16, WriteAllocate: true},
}

// wbOp is one step of a write-back differential stream: an access of key,
// a write when write is set, or a FlushAll when flush is set.
type wbOp struct {
	key          uint64
	write, flush bool
}

// checkWriteBackLRU drives a WriteBackLRU and Cache with NewLRU over ops
// and demands, per access, the same hit, victim and victim dirtiness and a
// returned slot that holds the key, and at the end the same Stats and
// set/way contents. It returns the reference's Stats.
func checkWriteBackLRU(t testing.TB, cfg Config, ops []wbOp) Stats {
	t.Helper()
	wb, err := NewWriteBackLRU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := MustNew(cfg, NewLRU())
	for i, op := range ops {
		if op.flush {
			wb.FlushAll()
			ref.FlushAll()
			continue
		}
		slot, got := wb.Access(op.key, op.write)
		want := ref.Access(trace.Access{Key: trace.Key(op.key), Write: op.write})
		if got != want {
			t.Fatalf("op %d (key %d write %v): %+v, want %+v", i, op.key, op.write, got, want)
		}
		if !wb.lru.Valid(slot) || wb.lru.Key(slot) != op.key || wb.lru.base(op.key) != slot-slot%wb.lru.ways {
			t.Fatalf("op %d (key %d): slot %d does not hold the key in its set", i, op.key, slot)
		}
	}
	if wb.Stats() != ref.Stats() {
		t.Errorf("stats %+v, want %+v", wb.Stats(), ref.Stats())
	}
	if !slices.Equal(wb.lru.ResidentKeys(), ref.ResidentKeys()) {
		t.Errorf("set/way contents differ")
	}
	return ref.Stats()
}

// TestWriteBackLRUMatchesCache is the differential test of the write-back
// helper on random read/write streams with interleaved FlushAll calls.
func TestWriteBackLRUMatchesCache(t *testing.T) {
	for _, cfg := range wbGeoms {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dlines/%dway/seed%d", cfg.Lines, cfg.Ways, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				hot := rng.Perm(4 * cfg.Lines)[:cfg.Lines/2+1]
				ops := make([]wbOp, 50000)
				for i := range ops {
					key := uint64(rng.Intn(4 * cfg.Lines))
					if rng.Intn(2) == 0 {
						key = uint64(hot[rng.Intn(len(hot))])
					}
					ops[i] = wbOp{key: key, write: rng.Intn(3) == 0, flush: rng.Intn(2000) == 0}
				}
				s := checkWriteBackLRU(t, cfg, ops)
				if s.Hits == 0 || s.WriteMisses == 0 || s.ReadMisses == 0 || s.Writebacks == 0 {
					t.Fatalf("the stream exercises too little: %+v", s)
				}
			})
		}
	}
}

// FuzzWriteBackLRUMatchesCache runs the differential test on fuzzed
// streams: the first byte picks a geometry, then each pair of bytes is one
// access (key and write bit) or, for a first byte of 0xff, a FlushAll.
func FuzzWriteBackLRUMatchesCache(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0, 9, 10})
	f.Add([]byte{2, 0x11, 0, 0x13, 1, 0x11, 2, 0xff, 0xff, 0x11, 0})
	f.Add([]byte{4, 1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11, 0, 13, 0, 15, 0, 17, 0, 19, 0, 21, 0, 23, 0, 25, 0, 27, 0, 29, 0, 31, 0, 33, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := wbGeoms[int(data[0])%len(wbGeoms)]
		var ops []wbOp
		for b := data[1:]; len(b) >= 2; b = b[2:] {
			if b[0] == 0xff {
				ops = append(ops, wbOp{flush: true})
				continue
			}
			key := (uint64(b[0])>>1 | uint64(b[1])<<7) % uint64(4*cfg.Lines)
			ops = append(ops, wbOp{key: key, write: b[0]&1 != 0})
		}
		checkWriteBackLRU(t, cfg, ops)
	})
}
