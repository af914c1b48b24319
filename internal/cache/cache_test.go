package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tcor/internal/stats"
	"tcor/internal/trace"
)

func reads(keys ...trace.Key) trace.Trace {
	tr := make(trace.Trace, len(keys))
	for i, k := range keys {
		tr[i] = trace.Access{Key: k}
	}
	trace.AnnotateNextUse(tr)
	return tr
}

func TestConfigValidate(t *testing.T) {
	_, err := Config{Lines: 0}.Validate()
	if err == nil {
		t.Error("expected error for zero lines")
	}
	_, err = Config{Lines: 8, Ways: -1}.Validate()
	if err == nil {
		t.Error("expected error for negative ways")
	}
	_, err = Config{Lines: 9, Ways: 2}.Validate()
	if err == nil {
		t.Error("expected error for non-divisible ways")
	}
	if c, err := (Config{Lines: 24, Ways: 2}).Validate(); err != nil || c.Lines != 24 {
		t.Errorf("non-power-of-two set counts are allowed: %v %v", c, err)
	}
	c, err := Config{Lines: 8}.Validate()
	if err != nil || c.Ways != 8 {
		t.Errorf("fully associative default: ways=%d err=%v", c.Ways, err)
	}
	_, err = Config{Lines: 8, Ways: 16}.Validate()
	if err == nil {
		t.Error("ways>lines must be a hard error, not clamp to fully associative")
	}
}

func TestConfigValidateGeometryBoundaries(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"ways==lines is fully associative", Config{Lines: 8, Ways: 8}, true},
		{"ways one above lines", Config{Lines: 8, Ways: 9}, false},
		{"direct mapped", Config{Lines: 8, Ways: 1}, true},
		{"single line", Config{Lines: 1}, true},
		{"single line, one way", Config{Lines: 1, Ways: 1}, true},
		{"single line, two ways", Config{Lines: 1, Ways: 2}, false},
		{"xor index, pow2 sets", Config{Lines: 64, Ways: 4, Index: XORIndex}, true},
		{"xor index, non-pow2 sets", Config{Lines: 24, Ways: 2, Index: XORIndex}, false},
		{"xor index, single set", Config{Lines: 4, Ways: 4, Index: XORIndex}, true},
		{"modulo index, non-pow2 sets", Config{Lines: 24, Ways: 2, Index: ModuloIndex}, true},
		{"custom index, non-pow2 sets", Config{Lines: 24, Ways: 2,
			Index: func(k trace.Key, sets int) int { return 0 }}, true},
	}
	for _, tc := range cases {
		_, err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid geometry must be a hard error", tc.name)
		}
	}
}

func TestXORIndexDegenerateSetCounts(t *testing.T) {
	// sets == 1 historically looped forever (zero shift); it must return 0
	// for every key.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, k := range []trace.Key{0, 1, 0xdeadbeef, 1 << 40} {
			if got := XORIndex(k, 1); got != 0 {
				t.Errorf("XORIndex(%d, 1) = %d, want 0", k, got)
			}
			if got := XORIndex(k, 0); got != 0 {
				t.Errorf("XORIndex(%d, 0) = %d, want 0", k, got)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("XORIndex with a single set did not terminate")
	}
	// Direct calls with a non-power-of-two count stay in range.
	for k := trace.Key(0); k < 1000; k++ {
		if got := XORIndex(k*2654435761+k, 24); got < 0 || got >= 24 {
			t.Fatalf("XORIndex out of range: %d", got)
		}
	}
}

func TestStatsPublishAndInvariants(t *testing.T) {
	c := MustNew(Config{Lines: 4, Ways: 2, WriteAllocate: true}, NewLRU())
	for _, a := range reads(1, 2, 1, 3, 2, 5, 6, 7) {
		c.Access(a)
	}
	reg := stats.NewRegistry()
	c.Stats().Publish(reg, "l1.test")
	RegisterStatsInvariants(reg, "l1.test")
	if err := reg.Check(); err != nil {
		t.Fatalf("published cache stats violate invariants: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Get("l1.test.accesses") != 8 {
		t.Errorf("accesses = %d, want 8", snap.Get("l1.test.accesses"))
	}
	if snap.Get("l1.test.hits")+snap.Get("l1.test.misses") != 8 {
		t.Error("hit/miss split does not cover all accesses")
	}
	// Corrupt one counter: the named invariant must trip.
	reg.Counter("l1.test.hits").Add(1)
	if err := reg.Check(); err == nil {
		t.Error("corrupted counters must fail the invariant check")
	}
}

func TestLinesFor(t *testing.T) {
	if got := LinesFor(64*1024, 64); got != 1024 {
		t.Errorf("LinesFor(64KiB, 64) = %d", got)
	}
	if got := LinesFor(100, 0); got != 0 {
		t.Errorf("LinesFor with zero line size = %d", got)
	}
}

func TestLRUBasics(t *testing.T) {
	c := MustNew(Config{Lines: 2, WriteAllocate: true}, NewLRU())
	tr := reads(1, 2, 1, 3, 2)
	// 1 miss, 2 miss, 1 hit, 3 miss (evicts 2), 2 miss (evicts 1)
	var hits int64
	for _, a := range tr {
		if c.Access(a).Hit {
			hits++
		}
	}
	s := c.Stats()
	if hits != 1 || s.Misses != 4 {
		t.Errorf("hits=%d misses=%d, want 1/4", hits, s.Misses)
	}
	// Compulsory misses are the first touches of 1, 2 and 3.
	b, err := Classify3C(c.Config(), NewLRU(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if b.Compulsory != 3 || b.Total != s.Misses {
		t.Errorf("3C = %+v, want 3 compulsory of %d misses", b, s.Misses)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := MustNew(Config{Lines: 2, WriteAllocate: true}, NewLRU())
	c.Access(trace.Access{Key: 10})
	c.Access(trace.Access{Key: 20})
	c.Access(trace.Access{Key: 10})        // 20 is now LRU
	res := c.Access(trace.Access{Key: 30}) // evicts 20
	if !res.Evicted || res.Victim != 20 {
		t.Errorf("victim = %+v, want key 20", res)
	}
	if !c.Contains(10) || !c.Contains(30) || c.Contains(20) {
		t.Errorf("resident = %v", c.ResidentKeys())
	}
}

func TestMRUEvictsMostRecent(t *testing.T) {
	c := MustNew(Config{Lines: 2, WriteAllocate: true}, NewMRU())
	c.Access(trace.Access{Key: 10})
	c.Access(trace.Access{Key: 20})
	res := c.Access(trace.Access{Key: 30}) // evicts 20 (most recent)
	if !res.Evicted || res.Victim != 20 {
		t.Errorf("victim = %+v, want key 20", res)
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	c := MustNew(Config{Lines: 2, WriteAllocate: true}, NewFIFO())
	c.Access(trace.Access{Key: 10})
	c.Access(trace.Access{Key: 20})
	c.Access(trace.Access{Key: 10}) // hit; does not change insertion order
	res := c.Access(trace.Access{Key: 30})
	if !res.Evicted || res.Victim != 10 {
		t.Errorf("victim = %+v, want key 10 (first in)", res)
	}
}

func TestOPTBeladyExample(t *testing.T) {
	// Classic example: with capacity 2 and trace 1 2 3 1 2, OPT keeps 1 and
	// 2 by evicting... wait, all lines are candidates: on access 3, OPT
	// evicts the line used farthest in future (2 at index 4 vs 1 at index
	// 3): evicts 2? No: 1 is next used at 3, 2 at 4, so 2 is farther and is
	// evicted. Then 1 hits, 2 misses: 3 misses total +1 = 4 accesses miss.
	tr := reads(1, 2, 3, 1, 2)
	st, err := Simulate(Config{Lines: 2, WriteAllocate: true}, NewOPT(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 4 {
		t.Errorf("OPT misses = %d, want 4", st.Misses)
	}
	// LRU on the same trace: 1m 2m 3m(evict 1) 1m(evict 2) 2m = 5 misses.
	st, err = Simulate(Config{Lines: 2, WriteAllocate: true}, NewLRU(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 5 {
		t.Errorf("LRU misses = %d, want 5", st.Misses)
	}
}

func TestOPTPrefersDeadLines(t *testing.T) {
	c := MustNew(Config{Lines: 2, WriteAllocate: true}, NewOPT())
	tr := reads(1, 2, 3, 2) // key 1 never used again
	c.Access(tr[0])
	c.Access(tr[1])
	res := c.Access(tr[2])
	if !res.Evicted || res.Victim != 1 {
		t.Errorf("OPT should evict dead key 1, got %+v", res)
	}
}

func TestWriteNoAllocateBypass(t *testing.T) {
	c := MustNew(Config{Lines: 2, WriteAllocate: false}, NewLRU())
	res := c.Access(trace.Access{Key: 1, Write: true})
	if !res.Bypassed || res.Fill {
		t.Errorf("write miss should bypass: %+v", res)
	}
	if c.Stats().Bypasses != 1 {
		t.Errorf("bypasses = %d", c.Stats().Bypasses)
	}
	// Read fills; then a write to the same key hits and dirties.
	c.Access(trace.Access{Key: 2})
	res = c.Access(trace.Access{Key: 2, Write: true})
	if !res.Hit {
		t.Errorf("write to resident line should hit: %+v", res)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := MustNew(Config{Lines: 1, WriteAllocate: true}, NewLRU())
	c.Access(trace.Access{Key: 1, Write: true})
	res := c.Access(trace.Access{Key: 2})
	if !res.Evicted || !res.VictimDirty {
		t.Errorf("expected dirty eviction, got %+v", res)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := MustNew(Config{Lines: 4, WriteAllocate: true}, NewLRU())
	c.Access(trace.Access{Key: 1, Write: true})
	c.Access(trace.Access{Key: 2})
	present, dirty := c.Invalidate(1)
	if !present || !dirty {
		t.Errorf("Invalidate(1) = %v,%v", present, dirty)
	}
	if c.Contains(1) {
		t.Error("key 1 still resident after invalidate")
	}
	present, _ = c.Invalidate(99)
	if present {
		t.Error("Invalidate of absent key reported present")
	}
	c.Access(trace.Access{Key: 3, Write: true})
	dirtyKeys := c.FlushAll()
	if len(dirtyKeys) != 1 || dirtyKeys[0] != 3 {
		t.Errorf("FlushAll dirty = %v, want [3]", dirtyKeys)
	}
	if len(c.ResidentKeys()) != 0 {
		t.Error("cache not empty after FlushAll")
	}
}

func TestSetMappingSeparatesKeys(t *testing.T) {
	// 4 lines, 2 ways => 2 sets. Keys 0,2,4 map to set 0; 1,3 to set 1.
	c := MustNew(Config{Lines: 4, Ways: 2, WriteAllocate: true}, NewLRU())
	for _, k := range []trace.Key{0, 2, 4} {
		c.Access(trace.Access{Key: k})
	}
	// Set 0 holds {2,4} (0 evicted); set 1 untouched.
	if c.Contains(0) {
		t.Error("key 0 should have been evicted from set 0")
	}
	if !c.Contains(2) || !c.Contains(4) {
		t.Errorf("resident = %v", c.ResidentKeys())
	}
	c.Access(trace.Access{Key: 1})
	if !c.Contains(1) || !c.Contains(2) || !c.Contains(4) {
		t.Error("set 1 fill must not disturb set 0")
	}
}

func TestXORIndexInRangeAndSpreads(t *testing.T) {
	sets := 64
	seen := map[int]bool{}
	for k := trace.Key(0); k < 4096; k += 64 { // stride of 64: modulo maps all to set 0
		idx := XORIndex(k, sets)
		if idx < 0 || idx >= sets {
			t.Fatalf("XORIndex out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) < sets/2 {
		t.Errorf("XOR indexing spread %d/%d sets for strided keys; want wide spread", len(seen), sets)
	}
	// Modulo, by contrast, puts them all in one set.
	mseen := map[int]bool{}
	for k := trace.Key(0); k < 4096; k += 64 {
		mseen[ModuloIndex(k, sets)] = true
	}
	if len(mseen) != 1 {
		t.Errorf("expected modulo to collapse strided keys, got %d sets", len(mseen))
	}
}

func TestPLRUVictimChasesBits(t *testing.T) {
	c := MustNew(Config{Lines: 4, Ways: 4, WriteAllocate: true}, NewPLRU())
	for k := trace.Key(1); k <= 4; k++ {
		c.Access(trace.Access{Key: k})
	}
	// After filling 1,2,3,4 in order, PLRU points at way 0 (key 1).
	res := c.Access(trace.Access{Key: 5})
	if !res.Evicted || res.Victim != 1 {
		t.Errorf("PLRU victim = %+v, want key 1", res)
	}
	// Touching a line protects it.
	c.Access(trace.Access{Key: 2})
	res = c.Access(trace.Access{Key: 6})
	if res.Victim == 2 {
		t.Error("PLRU evicted just-touched line")
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	tr := reads(1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3)
	a, _ := Simulate(Config{Lines: 3, WriteAllocate: true}, NewRandom(7), tr)
	b, _ := Simulate(Config{Lines: 3, WriteAllocate: true}, NewRandom(7), tr)
	if a != b {
		t.Errorf("same seed gave different stats: %+v vs %+v", a, b)
	}
}

func TestSRRIPPromotesOnHit(t *testing.T) {
	c := MustNew(Config{Lines: 2, WriteAllocate: true}, NewSRRIP())
	c.Access(trace.Access{Key: 1})
	c.Access(trace.Access{Key: 2})
	c.Access(trace.Access{Key: 1}) // promote key 1 to RRPV 0
	res := c.Access(trace.Access{Key: 3})
	if res.Victim != 2 {
		t.Errorf("SRRIP victim = %v, want 2 (not-promoted)", res.Victim)
	}
}

func TestRRIPAgingTerminates(t *testing.T) {
	// All lines at RRPV 0 must still yield a victim via aging.
	lines := []Line{{Valid: true}, {Valid: true}}
	w := rripVictim(lines)
	if w != 0 && w != 1 {
		t.Errorf("victim = %d", w)
	}
	if lines[w].RRPV != rrpvMax {
		t.Errorf("aging should raise RRPV to max, got %d", lines[w].RRPV)
	}
}

func TestDRRIPRunsAndIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := make(trace.Trace, 20000)
	for i := range tr {
		tr[i].Key = trace.Key(rng.Intn(512))
	}
	trace.AnnotateNextUse(tr)
	cfg := Config{Lines: 256, Ways: 4, WriteAllocate: true}
	a, err := Simulate(cfg, NewDRRIP(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(cfg, NewDRRIP(1), tr)
	if a != b {
		t.Error("DRRIP not deterministic with fixed seed")
	}
	if a.Hits == 0 || a.Misses == 0 {
		t.Errorf("degenerate stats: %+v", a)
	}
}

// Property: OPT never has more misses than any other policy on the same
// fully-associative configuration (Belady/Mattson optimality).
func TestOPTOptimalityProperty(t *testing.T) {
	policies := []func() Policy{
		NewLRU, NewMRU, NewFIFO,
		func() Policy { return NewRandom(3) },
		NewSRRIP,
	}
	f := func(seed int64, capExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 2 + int(capExp%6) // 2..7 lines
		tr := make(trace.Trace, 300)
		for i := range tr {
			tr[i].Key = trace.Key(rng.Intn(20))
		}
		trace.AnnotateNextUse(tr)
		cfg := Config{Lines: capacity, WriteAllocate: true}
		// Round capacity down to keep "sets power of two" trivially true
		// (fully associative => 1 set, always fine).
		optStats, err := Simulate(cfg, NewOPT(), tr)
		if err != nil {
			return false
		}
		for _, np := range policies {
			st, err := Simulate(cfg, np(), tr)
			if err != nil {
				return false
			}
			if optStats.Misses > st.Misses {
				t.Logf("OPT %d misses > %s %d misses (cap %d)",
					optStats.Misses, np().Name(), st.Misses, capacity)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: LRU stack inclusion — a larger fully-associative LRU cache never
// misses more than a smaller one on the same trace.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := make(trace.Trace, 400)
		for i := range tr {
			tr[i].Key = trace.Key(rng.Intn(30))
		}
		trace.AnnotateNextUse(tr)
		prev := int64(1 << 62)
		for _, lines := range []int{2, 4, 8, 16, 32} {
			st, err := Simulate(Config{Lines: lines, WriteAllocate: true}, NewLRU(), tr)
			if err != nil {
				return false
			}
			if st.Misses > prev {
				return false
			}
			prev = st.Misses
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: OPT misses never fall below the paper's lower bound on the
// write-once/read-many primitive pattern.
func TestOPTRespectsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := 20 + rng.Intn(50)
		// Build a PB-like trace: each primitive written once, then read in
		// one or more "tiles".
		var tr trace.Trace
		for p := 0; p < tp; p++ {
			tr = append(tr, trace.Access{Key: trace.Key(p), Write: true})
		}
		for r := 0; r < 3; r++ {
			for p := 0; p < tp; p++ {
				if rng.Intn(2) == 0 {
					tr = append(tr, trace.Access{Key: trace.Key(p)})
				}
			}
		}
		// Ensure every primitive read at least once.
		for p := 0; p < tp; p++ {
			tr = append(tr, trace.Access{Key: trace.Key(p)})
		}
		trace.AnnotateNextUse(tr)
		cp := 4 + rng.Intn(tp)
		st, err := Simulate(Config{Lines: cp, WriteAllocate: true}, NewOPT(), tr)
		if err != nil {
			return false
		}
		return st.Misses >= LowerBoundMisses(tp, cp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestLowerBound(t *testing.T) {
	if got := LowerBoundMisses(1000, 128); got != 1872 {
		t.Errorf("LB(1000,128) = %d, want 1872 (paper example)", got)
	}
	if got := LowerBoundMisses(100, 100); got != 100 {
		t.Errorf("LB(100,100) = %d, want 100", got)
	}
	if got := LowerBoundMisses(100, 500); got != 100 {
		t.Errorf("LB(100,500) = %d, want 100", got)
	}
	if got := LowerBoundMissRatio(100, 500, 0); got != 0 {
		t.Errorf("LB ratio with zero accesses = %v", got)
	}
	tr := reads(0, 1, 2, 0, 1, 2)
	if got := TraceLowerBoundMissRatio(tr, 1); got != float64(3+2)/6 {
		t.Errorf("TraceLowerBoundMissRatio = %v", got)
	}
}

func TestStatsRatios(t *testing.T) {
	s := Stats{Accesses: 10, Hits: 7, Misses: 3}
	if s.MissRatio() != 0.3 || s.HitRatio() != 0.7 {
		t.Errorf("ratios = %v/%v", s.MissRatio(), s.HitRatio())
	}
	var z Stats
	if z.MissRatio() != 0 || z.HitRatio() != 0 {
		t.Error("zero-access ratios should be 0")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{Lines: 4}, nil); err == nil {
		t.Error("expected error for nil policy")
	}
	if _, err := New(Config{Lines: 0}, NewLRU()); err == nil {
		t.Error("expected error for bad config")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{Lines: 0}, NewLRU())
}

func TestFullyAssociativeFastPathConsistent(t *testing.T) {
	// The whereIs fast path (single set) must agree with the generic scan.
	rng := rand.New(rand.NewSource(5))
	tr := make(trace.Trace, 5000)
	for i := range tr {
		tr[i].Key = trace.Key(rng.Intn(100))
		tr[i].Write = rng.Intn(4) == 0
	}
	trace.AnnotateNextUse(tr)
	fa, _ := Simulate(Config{Lines: 32, WriteAllocate: true}, NewLRU(), tr)
	// 32 ways spread over 1 set == 32 lines fully associative; compare with
	// explicit Ways = Lines.
	fb, _ := Simulate(Config{Lines: 32, Ways: 32, WriteAllocate: true}, NewLRU(), tr)
	if fa != fb {
		t.Errorf("fast path diverges: %+v vs %+v", fa, fb)
	}
}
