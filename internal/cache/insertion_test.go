package cache

import (
	"math/rand"
	"testing"

	"tcor/internal/trace"
)

func TestNRUBasics(t *testing.T) {
	c := MustNew(Config{Lines: 2, WriteAllocate: true}, NewNRU())
	c.Access(trace.Access{Key: 1})
	c.Access(trace.Access{Key: 2})
	// Both referenced: inserting 3 resets bits and evicts way 0 (key 1).
	res := c.Access(trace.Access{Key: 3})
	if !res.Evicted || res.Victim != 1 {
		t.Errorf("victim = %+v, want key 1", res)
	}
	// Key 2 now has its bit clear (reset); it is the next victim even
	// though key 3 was inserted later.
	res = c.Access(trace.Access{Key: 4})
	if res.Victim != 2 {
		t.Errorf("victim = %v, want key 2 (unreferenced)", res.Victim)
	}
}

func TestLIPStreamingResistance(t *testing.T) {
	// The textbook LIP case: a cyclic working set larger than the cache.
	// LRU misses on every access (the next victim is always the next key
	// needed); LIP pins a prefix of the loop and hits on it every lap.
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		for k := trace.Key(0); k < 8; k++ {
			tr = append(tr, trace.Access{Key: k})
		}
	}
	trace.AnnotateNextUse(tr)
	cfg := Config{Lines: 4, WriteAllocate: true}
	lipStats, err := Simulate(cfg, NewLIP(), tr)
	if err != nil {
		t.Fatal(err)
	}
	lruStats, _ := Simulate(cfg, NewLRU(), tr)
	if lruStats.Hits != 0 {
		t.Errorf("LRU should thrash the cyclic loop, got %d hits", lruStats.Hits)
	}
	// LIP retains 3 of the 8 loop keys (cache minus the churn slot).
	if lipStats.Hits < int64(150*3) {
		t.Errorf("LIP hits = %d; loop prefix apparently not retained", lipStats.Hits)
	}
}

func TestBIPAdaptsAfterPhaseChange(t *testing.T) {
	// Phase 1: working set A (keys 0-3). Phase 2: working set B (10-13).
	// BIP's occasional MRU insert lets B eventually displace A.
	var tr trace.Trace
	for i := 0; i < 100; i++ {
		tr = append(tr, trace.Access{Key: trace.Key(i % 4)})
	}
	for i := 0; i < 2000; i++ {
		tr = append(tr, trace.Access{Key: trace.Key(10 + i%4)})
	}
	trace.AnnotateNextUse(tr)
	st, err := Simulate(Config{Lines: 4, WriteAllocate: true}, NewBIP(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	// If BIP never adapted, phase 2 would miss ~2000 times.
	if st.Misses > 500 {
		t.Errorf("BIP failed to adapt: %d misses", st.Misses)
	}
}

func TestDIPDeterministicAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := make(trace.Trace, 30000)
	for i := range tr {
		tr[i].Key = trace.Key(rng.Intn(700))
	}
	trace.AnnotateNextUse(tr)
	cfg := Config{Lines: 512, Ways: 4, WriteAllocate: true}
	a, err := Simulate(cfg, NewDIP(3), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(cfg, NewDIP(3), tr)
	if a != b {
		t.Error("DIP not deterministic")
	}
	// DIP should land within a whisker of the better of LRU and BIP.
	lruStats, _ := Simulate(cfg, NewLRU(), tr)
	bipStats, _ := Simulate(cfg, NewBIP(3), tr)
	best := lruStats.Misses
	if bipStats.Misses < best {
		best = bipStats.Misses
	}
	if float64(a.Misses) > 1.15*float64(best) {
		t.Errorf("DIP misses %d, best single policy %d", a.Misses, best)
	}
}

func TestOPTStillOptimalAgainstNewPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := make(trace.Trace, 2000)
	for i := range tr {
		tr[i].Key = trace.Key(rng.Intn(60))
	}
	trace.AnnotateNextUse(tr)
	cfg := Config{Lines: 16, WriteAllocate: true}
	opt, err := Simulate(cfg, NewOPT(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []func() Policy{
		NewNRU, NewLIP,
		func() Policy { return NewBIP(1) },
		func() Policy { return NewDIP(1) },
	} {
		st, err := Simulate(cfg, np(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Misses > st.Misses {
			t.Errorf("OPT %d misses > %s %d", opt.Misses, np().Name(), st.Misses)
		}
	}
}

func TestClassify3CBasic(t *testing.T) {
	// Keys 0 and 64 conflict in a direct-mapped 64-line modulo cache but
	// fit easily in the fully associative one.
	var tr trace.Trace
	for i := 0; i < 50; i++ {
		tr = append(tr, trace.Access{Key: 0}, trace.Access{Key: 64})
	}
	trace.AnnotateNextUse(tr)
	b, err := Classify3C(Config{Lines: 64, Ways: 1, WriteAllocate: true}, NewLRU(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if b.Compulsory != 2 {
		t.Errorf("compulsory = %d", b.Compulsory)
	}
	if b.Capacity != 0 {
		t.Errorf("capacity = %d, want 0 (working set of 2)", b.Capacity)
	}
	if b.Conflict != 98 {
		t.Errorf("conflict = %d, want 98", b.Conflict)
	}
	if b.Compulsory+b.Capacity+b.Conflict != b.Total {
		t.Error("components do not sum to total")
	}
}

func TestClassify3CCapacityDominated(t *testing.T) {
	// Cyclic sweep over 4x the cache: all non-compulsory misses are
	// capacity, none conflict (fully associative config).
	var tr trace.Trace
	for r := 0; r < 5; r++ {
		for k := trace.Key(0); k < 64; k++ {
			tr = append(tr, trace.Access{Key: k})
		}
	}
	trace.AnnotateNextUse(tr)
	b, err := Classify3C(Config{Lines: 16, WriteAllocate: true}, NewLRU(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if b.Conflict != 0 {
		t.Errorf("conflict = %d in a fully associative cache", b.Conflict)
	}
	if b.Capacity == 0 {
		t.Error("expected capacity misses on a sweeping trace")
	}
	if b.Compulsory != 64 {
		t.Errorf("compulsory = %d", b.Compulsory)
	}
}

func TestClassify3CWriteNoAllocate(t *testing.T) {
	// Write misses bypass, so key 1 misses three times and keys 2 and 3
	// never fill; compulsory misses are still the three distinct keys.
	tr := trace.Trace{
		{Key: 1, Write: true}, {Key: 2, Write: true}, {Key: 1, Write: true},
		{Key: 1}, {Key: 1}, {Key: 3, Write: true},
	}
	b, err := Classify3C(Config{Lines: 4, WriteAllocate: false}, NewLRU(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if b.Compulsory != 3 || b.Total != 5 || b.Conflict != 0 || b.Capacity != 2 {
		t.Errorf("3C = %+v, want 3 compulsory + 2 capacity = 5 misses", b)
	}
}

func TestClassify3CInvariantOnRandomTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		tr := make(trace.Trace, 1500)
		for i := range tr {
			tr[i].Key = trace.Key(rng.Intn(200))
		}
		trace.AnnotateNextUse(tr)
		b, err := Classify3C(Config{Lines: 32, Ways: 2, WriteAllocate: true}, NewLRU(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if b.Compulsory+b.Capacity+b.Conflict != b.Total {
			t.Fatalf("trial %d: 3C components %d+%d+%d != %d",
				trial, b.Compulsory, b.Capacity, b.Conflict, b.Total)
		}
		if b.Compulsory < 0 || b.Capacity < 0 || b.Conflict < 0 {
			t.Fatalf("trial %d: negative component: %+v", trial, b)
		}
	}
}
