package tcor

import (
	"math/rand"
	"slices"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/pbuffer"
)

// attrBlocks builds n attribute block addresses for a primitive with the
// given attribute base index.
func attrBlocks(base uint32, n int) []uint64 {
	l := pbuffer.NewAttrLayout()
	out := make([]uint64, n)
	for i := range out {
		out[i] = l.AttrAddr(base, i)
	}
	return out
}

func newTestAttrCache(t *testing.T, attrEntries, primEntries, ways int) (*AttributeCache, *mem.Counter) {
	t.Helper()
	sink := mem.NewCounter()
	c, err := NewAttributeCache(AttrCacheConfig{
		AttrEntries: attrEntries,
		PrimEntries: primEntries,
		Ways:        ways,
		XORIndex:    false, // deterministic sets for targeted tests
		WriteBypass: true,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	return c, sink
}

func TestAttrCacheConfigDefaults(t *testing.T) {
	cfg := DefaultAttrCacheConfig(48 * 1024)
	if cfg.AttrEntries != 768 {
		t.Errorf("48KiB -> %d entries, want 768", cfg.AttrEntries)
	}
	norm, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if norm.PrimEntries%norm.Ways != 0 {
		t.Error("prim entries not divisible by ways")
	}
	sets := norm.PrimEntries / norm.Ways
	if sets&(sets-1) != 0 {
		t.Errorf("sets = %d not a power of two", sets)
	}
	if _, err := NewAttributeCache(AttrCacheConfig{}, mem.NewCounter()); err == nil {
		t.Error("expected error for zero entries")
	}
	if _, err := NewAttributeCache(DefaultAttrCacheConfig(1024), nil); err == nil {
		t.Error("expected error for nil sink")
	}
	if _, err := NewAttributeCache(AttrCacheConfig{AttrEntries: 64, PrimEntries: 7, Ways: 2}, mem.NewCounter()); err == nil {
		t.Error("expected error for indivisible prim entries")
	}
	if _, err := NewAttributeCache(AttrCacheConfig{AttrEntries: 64, PrimEntries: 24, Ways: 2}, mem.NewCounter()); err == nil {
		t.Error("expected error for non-pow2 sets")
	}
}

func TestAttrCacheWriteInsertAndReadHit(t *testing.T) {
	c, sink := newTestAttrCache(t, 16, 4, 4)
	c.Write(1, 2, 5, 9, attrBlocks(0, 2))
	if got := c.Stats().WriteInserts; got != 1 {
		t.Fatalf("write inserts = %d", got)
	}
	if sink.Total() != 0 {
		t.Fatalf("insert should not touch L2, saw %d accesses", sink.Total())
	}
	res := c.Read(1, 2, 7, 9, attrBlocks(0, 2))
	if !res.Hit {
		t.Fatal("expected read hit after insert")
	}
	if sink.Total() != 0 {
		t.Error("hit should not touch L2")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAttrCacheCheckInvariantsCatchesMisplacedTags corrupts the Primitive
// Buffer the two ways the set-scan lookup cannot tolerate: a valid line
// outside its primitive's set, and one primitive valid in two ways.
func TestAttrCacheCheckInvariantsCatchesMisplacedTags(t *testing.T) {
	c, _ := newTestAttrCache(t, 16, 8, 4) // two sets
	c.Write(1, 1, 5, 9, attrBlocks(0, 1))
	set, way, ok := c.lookup(1)
	if !ok {
		t.Fatal("prim 1 not resident after write")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	other := 1 - set
	c.sets[other][0], c.sets[set][way] = c.sets[set][way], primLine{}
	if err := c.CheckInvariants(); err == nil {
		t.Error("a line outside its primitive's set passed CheckInvariants")
	}
	c.sets[set][way], c.sets[other][0] = c.sets[other][0], primLine{}

	dup := way + 1
	if dup == len(c.sets[set]) {
		dup = 0
	}
	c.sets[set][dup] = c.sets[set][way]
	c.sets[set][dup].abp = -1
	if err := c.CheckInvariants(); err == nil {
		t.Error("a primitive valid in two ways passed CheckInvariants")
	}
}

func TestAttrCacheReadMissFetchesFromL2(t *testing.T) {
	c, sink := newTestAttrCache(t, 16, 4, 4)
	res := c.Read(42, 3, 7, 9, attrBlocks(10, 3))
	if res.Hit || res.Stalled {
		t.Fatalf("expected plain miss, got %+v", res)
	}
	if sink.Reads != 3 {
		t.Errorf("L2 reads = %d, want 3 (one per attribute)", sink.Reads)
	}
	if got := sink.Region(memmap.RegionPBAttributes).Reads; got != 3 {
		t.Errorf("PB-Attributes region reads = %d", got)
	}
	// Second read hits.
	if res := c.Read(42, 3, 8, 9, attrBlocks(10, 3)); !res.Hit {
		t.Error("expected hit on refetch")
	}
}

func TestAttrCacheWriteBypassPolicy(t *testing.T) {
	// 1-set cache with 2 ways: fill with two prims whose first use is
	// early, then write one with a *later* first use: per §III-C4 the
	// request must bypass (all residents are read before it).
	c, sink := newTestAttrCache(t, 8, 2, 2)
	c.Write(0, 1, 3, 3, attrBlocks(0, 1))
	c.Write(1, 1, 4, 4, attrBlocks(1, 1))
	c.Write(2, 1, 9, 9, attrBlocks(2, 1)) // later than both -> bypass
	st := c.Stats()
	if st.WriteBypasses != 1 {
		t.Fatalf("bypasses = %d, want 1", st.WriteBypasses)
	}
	if sink.Writes != 1 {
		t.Fatalf("L2 writes = %d, want 1 (the bypassed attribute)", sink.Writes)
	}
	if c.Contains(2) {
		t.Error("bypassed primitive must not be resident")
	}
	// Now write one with an *earlier* first use than the resident max:
	// the resident with the greatest OPT number (prim 1, first use 4) is
	// evicted dirty.
	c.Write(3, 1, 2, 2, attrBlocks(3, 1))
	st = c.Stats()
	if st.WriteInserts != 3 {
		t.Errorf("write inserts = %d, want 3", st.WriteInserts)
	}
	if st.DirtyEvictions != 1 {
		t.Errorf("dirty evictions = %d, want 1", st.DirtyEvictions)
	}
	if c.Contains(1) {
		t.Error("prim 1 (max OPT number) should have been evicted")
	}
	if !c.Contains(0) || !c.Contains(3) {
		t.Error("prims 0 and 3 should be resident")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAttrCacheWriteBypassOnTie(t *testing.T) {
	// Equal OPT numbers (same first tile) must bypass, not evict (§III-C4).
	c, _ := newTestAttrCache(t, 8, 2, 2)
	c.Write(0, 1, 5, 5, attrBlocks(0, 1))
	c.Write(1, 1, 5, 5, attrBlocks(1, 1))
	c.Write(2, 1, 5, 5, attrBlocks(2, 1))
	if c.Stats().WriteBypasses != 1 {
		t.Errorf("bypasses = %d, want 1 on tie", c.Stats().WriteBypasses)
	}
}

func TestAttrCacheOPTReplacementOnReadMiss(t *testing.T) {
	// Single set, 2 ways. Resident prims with OPT numbers 10 and 20.
	// A read miss must evict the one with the greater OPT number (20).
	c, _ := newTestAttrCache(t, 8, 2, 2)
	c.Write(0, 1, 10, 10, attrBlocks(0, 1))
	c.Write(1, 1, 20, 20, attrBlocks(1, 1))
	res := c.Read(2, 1, 15, 15, attrBlocks(2, 1))
	if res.Hit {
		t.Fatal("expected miss")
	}
	c.Unlock(2)
	if c.Contains(1) {
		t.Error("prim 1 (OPT 20) should have been evicted")
	}
	if !c.Contains(0) || !c.Contains(2) {
		t.Error("prims 0 and 2 should be resident")
	}
}

func TestAttrCacheLocksPreventEviction(t *testing.T) {
	c, _ := newTestAttrCache(t, 8, 2, 2)
	c.Write(0, 1, 10, 10, attrBlocks(0, 1))
	c.Write(1, 1, 20, 20, attrBlocks(1, 1))
	// Read both: both locked (awaiting the Rasterizer).
	c.Read(0, 1, 30, 30, attrBlocks(0, 1))
	c.Read(1, 1, 40, 40, attrBlocks(1, 1))
	res := c.Read(2, 1, 5, 5, attrBlocks(2, 1))
	if !res.Stalled {
		t.Fatal("expected stall with all lines locked")
	}
	if c.Stats().Stalls != 1 {
		t.Errorf("stalls = %d", c.Stats().Stalls)
	}
	// Rasterizer consumes prim 1 -> retry succeeds and evicts prim 1.
	c.Unlock(1)
	res = c.Read(2, 1, 5, 5, attrBlocks(2, 1))
	if res.Stalled || res.Hit {
		t.Fatalf("expected successful miss after unlock, got %+v", res)
	}
	if c.Contains(1) {
		t.Error("unlocked prim 1 should have been the victim")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAttrCacheHitUpdatesOPTNumber(t *testing.T) {
	// After a hit updates the OPT number, replacement must use the new
	// value (§III-C3 Hit).
	c, _ := newTestAttrCache(t, 8, 2, 2)
	c.Write(0, 1, 10, 10, attrBlocks(0, 1))
	c.Write(1, 1, 8, 8, attrBlocks(1, 1))
	// Hit prim 0 with a *small* new OPT number; prim 1 keeps 8.
	c.Read(0, 1, 2, 10, attrBlocks(0, 1))
	c.Unlock(0)
	// Miss: victim must now be prim 1 (OPT 8 > 2).
	c.Read(2, 1, 5, 5, attrBlocks(2, 1))
	if c.Contains(1) || !c.Contains(0) {
		t.Error("replacement ignored the updated OPT number")
	}
}

func TestAttrCacheAttrSpacePressureEvictsMore(t *testing.T) {
	// Attribute buffer with 4 entries; two resident prims with 2 attrs
	// each fill it. Inserting a 2-attr prim into a *different* set must
	// still evict someone to make attribute space (§III-C3).
	sink := mem.NewCounter()
	c, err := NewAttributeCache(AttrCacheConfig{
		AttrEntries: 4, PrimEntries: 4, Ways: 2,
		WriteBypass: true,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	// Prims 0 and 2 map to set 0 (modulo 2 sets), prim 1 to set 1.
	c.Write(0, 2, 10, 10, attrBlocks(0, 2))
	c.Write(1, 2, 20, 20, attrBlocks(2, 2))
	if c.FreeAttrEntries() != 0 {
		t.Fatalf("free = %d, want 0", c.FreeAttrEntries())
	}
	// Read miss for prim 2 (set 0): set 0 still has a free way, but the
	// Attribute Buffer is full, so the cache must evict a primitive with
	// the greatest OPT number globally — prim 1 (OPT 20) — to free entries.
	res := c.Read(2, 2, 5, 5, attrBlocks(4, 2))
	if res.Hit || res.Stalled {
		t.Fatalf("unexpected %+v", res)
	}
	if c.Contains(1) {
		t.Error("prim 1 (max OPT number) should have been evicted for attribute space")
	}
	if !c.Contains(0) {
		t.Error("prim 0 should still be resident")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Dirty eviction of prim 0 wrote its 2 attributes to L2.
	if sink.Writes != 2 {
		t.Errorf("L2 writes = %d, want 2", sink.Writes)
	}
}

func TestAttrCacheEndFrameResets(t *testing.T) {
	c, sink := newTestAttrCache(t, 16, 4, 4)
	c.Write(0, 3, 1, 1, attrBlocks(0, 3))
	c.Write(1, 2, 2, 2, attrBlocks(3, 2))
	before := sink.Writes
	c.EndFrame()
	if sink.Writes != before {
		t.Error("EndFrame must not write back (PB recycled by driver)")
	}
	if c.Contains(0) || c.Contains(1) {
		t.Error("cache not empty after EndFrame")
	}
	if c.FreeAttrEntries() != 16 {
		t.Errorf("free = %d after EndFrame", c.FreeAttrEntries())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Randomized invariant test: a stream of writes, reads, unlocks and frame
// boundaries never corrupts the free list or the lookup map.
func TestAttrCacheInvariantsUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sink := mem.NewCounter()
	c, err := NewAttributeCache(AttrCacheConfig{
		AttrEntries: 32, PrimEntries: 16, Ways: 4,
		XORIndex: true, WriteBypass: true,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	var locked []uint32
	for i := 0; i < 20000; i++ {
		prim := uint32(rng.Intn(64))
		n := 1 + rng.Intn(3)
		blocks := attrBlocks(prim*4, n)
		switch rng.Intn(10) {
		case 0, 1, 2:
			c.Write(prim, uint8(n), uint16(rng.Intn(100)), uint16(rng.Intn(100)), blocks)
		case 9:
			if len(locked) > 8 {
				for _, p := range locked {
					c.Unlock(p)
				}
				locked = locked[:0]
			}
			if rng.Intn(50) == 0 {
				c.EndFrame()
				locked = locked[:0]
			}
		default:
			res := c.Read(prim, uint8(n), uint16(rng.Intn(100)), uint16(rng.Intn(100)), blocks)
			if res.Stalled {
				for _, p := range locked {
					c.Unlock(p)
				}
				locked = locked[:0]
			} else {
				locked = append(locked, prim)
			}
		}
		if i%500 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ReadHits == 0 || st.ReadMisses == 0 || st.WriteBypasses == 0 {
		t.Errorf("degenerate run: %+v", st)
	}
}

func TestPrimitiveListCache(t *testing.T) {
	sink := mem.NewCounter()
	p, err := NewPrimitiveListCache(ListCacheConfig{SizeBytes: 1024, Ways: 2, TagLastUse: true}, sink)
	if err != nil {
		t.Fatal(err)
	}
	base := memmap.PBListsBase
	// Write 16 PMDs of one block: 1 miss, 15 hits, no L2 traffic (write
	// allocate without fetch).
	for i := 0; i < 16; i++ {
		p.Access(base+uint64(i*4), true, 3)
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 15 {
		t.Errorf("misses/hits = %d/%d", st.Misses, st.Hits)
	}
	if sink.Total() != 0 {
		t.Errorf("writes allocated locally should not reach L2, got %d", sink.Total())
	}
	// Read the same block: hit.
	p.Access(base, false, 3)
	if p.Stats().Hits != 16 {
		t.Error("read after write should hit")
	}
	// Read a far block: miss -> L2 read tagged with the tile position.
	p.Access(base+1<<20, false, 7)
	if sink.Reads != 1 {
		t.Errorf("L2 reads = %d", sink.Reads)
	}
	if sink.Region(memmap.RegionPBLists).Reads != 1 {
		t.Error("region classification")
	}
}

func TestPrimitiveListCacheWritebackOnEviction(t *testing.T) {
	sink := mem.NewCounter()
	// Tiny cache: 2 lines, direct... 2 ways 1 set.
	p, err := NewPrimitiveListCache(ListCacheConfig{SizeBytes: 128, Ways: 2, TagLastUse: true}, sink)
	if err != nil {
		t.Fatal(err)
	}
	base := memmap.PBListsBase
	p.Access(base, true, 1)      // dirty block A
	p.Access(base+64, true, 2)   // dirty block B
	p.Access(base+128, false, 3) // evicts A -> writeback + fetch
	if st := p.Stats(); st.Writebacks != 1 {
		t.Errorf("writebacks = %d", st.Writebacks)
	}
	if sink.Writes != 1 || sink.Reads != 1 {
		t.Errorf("L2 = %d reads %d writes, want 1/1", sink.Reads, sink.Writes)
	}
	p.EndFrame()
	// EndFrame drops dirty lines without L2 writes.
	if sink.Writes != 1 {
		t.Error("EndFrame must not write back")
	}
}

// lastUseRecorder is a mem.Sink that keeps every request in order.
type lastUseRecorder struct{ reqs []mem.Request }

func (r *lastUseRecorder) Access(req mem.Request)          { r.reqs = append(r.reqs, req) }
func (r *lastUseRecorder) TileRetired(uint16, geom.TileID) {}
func (r *lastUseRecorder) EndFrame()                       {}

// TestPrimitiveListCacheLastUseColumn pins the per-slot last-use column:
// a dirty victim's write-back carries the position of the last tile that
// touched the block, and a re-fetch carries the fetching tile's position.
func TestPrimitiveListCacheLastUseColumn(t *testing.T) {
	sink := &lastUseRecorder{}
	// One set of two ways.
	p, err := NewPrimitiveListCache(ListCacheConfig{SizeBytes: 128, Ways: 2, TagLastUse: true}, sink)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := memmap.PBListsBase, memmap.PBListsBase+64, memmap.PBListsBase+128
	p.Access(a, true, 3)    // fill A dirty, no fetch
	p.Access(a+4, true, 7)  // hit: A's last use moves to 7
	p.Access(b, false, 8)   // fetch B
	p.Access(c, false, 8)   // evicts A: write-back, then fetch C
	p.Access(a+8, false, 9) // re-fetch A, evicting clean B
	want := []mem.Request{
		{Addr: b, LastUse: 8, HasLastUse: true},
		{Addr: a, Write: true, LastUse: 7, HasLastUse: true},
		{Addr: c, LastUse: 8, HasLastUse: true},
		{Addr: a, LastUse: 9, HasLastUse: true},
	}
	if !slices.Equal(sink.reqs, want) {
		t.Errorf("L2 requests %+v, want %+v", sink.reqs, want)
	}

	// Without TagLastUse the same stream carries no tags.
	untagged := &lastUseRecorder{}
	q, err := NewPrimitiveListCache(ListCacheConfig{SizeBytes: 128, Ways: 2}, untagged)
	if err != nil {
		t.Fatal(err)
	}
	q.Access(a, true, 3)
	q.Access(b, false, 8)
	q.Access(c, false, 8)
	for _, r := range untagged.reqs {
		if r.HasLastUse || r.LastUse != 0 {
			t.Errorf("untagged cache sent %+v", r)
		}
	}
}
