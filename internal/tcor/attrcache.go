// Package tcor implements the paper's primary contribution: the split Tile
// Cache of §III-C. The Attribute Cache caches PB-Attributes at primitive
// granularity with the practical OPT replacement policy driven by the OPT
// Numbers the Polygon List Builder embedded in the PMDs; the Primitive List
// Cache is a conventional LRU cache for PB-Lists.
package tcor

import (
	"fmt"

	"tcor/internal/cache"
	"tcor/internal/mem"
	"tcor/internal/stats"
	"tcor/internal/trace"
)

// AttrCacheConfig sizes the Attribute Cache (Fig. 8).
type AttrCacheConfig struct {
	// AttrEntries is the number of Attribute Buffer entries; each holds one
	// 48-byte attribute (one PB-Attributes block). SizeToAttrEntries
	// derives it from a byte budget.
	AttrEntries int
	// PrimEntries is the number of Primitive Buffer lines. Zero derives a
	// default of AttrEntries/3 rounded so the set count is a power of two
	// (one line per average-sized primitive of ~3 attributes).
	PrimEntries int
	// Ways is the Primitive Buffer associativity (Table I: 4).
	Ways int
	// XORIndex selects the XOR-based set mapping of §III-C2 (default in
	// TCOR; disable for the ablation).
	XORIndex bool
	// WriteBypass enables the PLB write bypass policy of §III-C4 (default
	// in TCOR; disable for the ablation).
	WriteBypass bool
}

// SizeToAttrEntries converts a byte budget into Attribute Buffer entries.
// Each entry stores one block-aligned 48-byte attribute, so it accounts for
// one 64-byte block like the baseline cache it replaces.
func SizeToAttrEntries(sizeBytes int) int { return sizeBytes / 64 }

// DefaultAttrCacheConfig returns the paper's configuration for a given
// Attribute Cache byte budget (48 KiB in the 64 KiB Tile Cache experiments,
// 112 KiB in the 128 KiB ones).
func DefaultAttrCacheConfig(sizeBytes int) AttrCacheConfig {
	return AttrCacheConfig{
		AttrEntries: SizeToAttrEntries(sizeBytes),
		Ways:        4,
		XORIndex:    true,
		WriteBypass: true,
	}
}

func (c AttrCacheConfig) withDefaults() (AttrCacheConfig, error) {
	if c.AttrEntries <= 0 {
		return c, fmt.Errorf("tcor: attribute buffer needs entries, got %d", c.AttrEntries)
	}
	if c.Ways <= 0 {
		c.Ways = 4
	}
	if c.PrimEntries == 0 {
		c.PrimEntries = roundToPow2Sets(c.AttrEntries/3, c.Ways)
	}
	if c.PrimEntries < c.Ways {
		c.PrimEntries = c.Ways
	}
	if c.PrimEntries%c.Ways != 0 {
		return c, fmt.Errorf("tcor: %d primitive lines not divisible by %d ways", c.PrimEntries, c.Ways)
	}
	sets := c.PrimEntries / c.Ways
	if sets&(sets-1) != 0 {
		return c, fmt.Errorf("tcor: %d primitive-buffer sets is not a power of two", sets)
	}
	return c, nil
}

// roundToPow2Sets rounds entries down so that entries/ways is a power of
// two (at least one set).
func roundToPow2Sets(entries, ways int) int {
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return p * ways
}

// primLine is one Primitive Buffer line (Fig. 8): valid, lock and dirty
// bits, the tag (primitive ID), the OPT Number, and the Attribute Buffer
// Pointer to the first attribute of the primitive.
type primLine struct {
	valid, lock, dirty bool
	prim               uint32
	optNum             uint16
	lastUse            uint16
	numAttrs           uint8
	abp                int32
	stamp              int64 // LRU stamp for tie-breaking among equal OPT Numbers
}

// attrEntry is one Attribute Buffer entry: an attribute slot with a valid
// bit, a lock bit and the linked-list next pointer (-1 terminates; free
// entries are chained through the same pointer).
type attrEntry struct {
	valid, lock bool
	next        int32
	blockAddr   uint64 // the PB-Attributes block this entry caches
}

// AttrStats counts Attribute Cache events.
type AttrStats struct {
	Reads, ReadHits, ReadMisses int64
	Writes, WriteInserts        int64
	WriteBypasses               int64
	Evictions, DirtyEvictions   int64
	// L2AttrReads/Writes are the PB-Attributes block transfers this cache
	// generated toward the L2.
	L2AttrReads, L2AttrWrites int64
	// Stalls counts reads that found every candidate line locked and had to
	// wait for the Rasterizer to drain (the model retries after unlocks).
	Stalls int64
	// BufReads/BufWrites count Attribute Buffer entry touches (the
	// Rasterizer reading attributes through the ABP, and fills/inserts
	// writing them), for the energy model.
	BufReads, BufWrites int64
	// ProbeAccesses counts Primitive Buffer lookups (tag probes), for the
	// energy model.
	ProbeAccesses int64
}

// Publish stores the counters into a stats registry under prefix.
func (s AttrStats) Publish(r *stats.Registry, prefix string) {
	r.Counter(prefix + ".reads").Store(s.Reads)
	r.Counter(prefix + ".readHits").Store(s.ReadHits)
	r.Counter(prefix + ".readMisses").Store(s.ReadMisses)
	r.Counter(prefix + ".writes").Store(s.Writes)
	r.Counter(prefix + ".writeInserts").Store(s.WriteInserts)
	r.Counter(prefix + ".writeBypasses").Store(s.WriteBypasses)
	r.Counter(prefix + ".evictions").Store(s.Evictions)
	r.Counter(prefix + ".dirtyEvictions").Store(s.DirtyEvictions)
	r.Counter(prefix + ".l2AttrReads").Store(s.L2AttrReads)
	r.Counter(prefix + ".l2AttrWrites").Store(s.L2AttrWrites)
	r.Counter(prefix + ".stalls").Store(s.Stalls)
	r.Counter(prefix + ".bufReads").Store(s.BufReads)
	r.Counter(prefix + ".bufWrites").Store(s.BufWrites)
	r.Counter(prefix + ".probeAccesses").Store(s.ProbeAccesses)
}

// RegisterAttrStatsInvariants registers the Attribute Cache consistency
// checks: the read hit/miss split covers every read, and every counted
// write either inserted or bypassed (in-place refreshes of a resident
// primitive touch neither, so the sum is an upper bound only in theory — a
// well-formed frame writes each primitive once, but the model tolerates
// re-writes).
func RegisterAttrStatsInvariants(r *stats.Registry, prefix string) {
	r.RegisterInvariant(prefix+".readHits+readMisses==reads", func(s stats.Snapshot) error {
		if h, m, a := s.Get(prefix+".readHits"), s.Get(prefix+".readMisses"), s.Get(prefix+".reads"); h+m != a {
			return fmt.Errorf("%d read hits + %d read misses != %d reads", h, m, a)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".writeInserts+writeBypasses<=writes", func(s stats.Snapshot) error {
		if i, b, w := s.Get(prefix+".writeInserts"), s.Get(prefix+".writeBypasses"), s.Get(prefix+".writes"); i+b > w {
			return fmt.Errorf("%d inserts + %d bypasses exceed %d writes", i, b, w)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".dirtyEvictions<=evictions", func(s stats.Snapshot) error {
		if d, e := s.Get(prefix+".dirtyEvictions"), s.Get(prefix+".evictions"); d > e {
			return fmt.Errorf("%d dirty evictions exceed %d evictions", d, e)
		}
		return nil
	})
}

// AttributeCache is the primitive-granularity PB-Attributes cache of
// §III-C2 with OPT replacement (§III-C6) and write bypass (§III-C4).
type AttributeCache struct {
	cfg   AttrCacheConfig
	sets  [][]primLine
	attrs []attrEntry
	free  int32 // head of the free list
	nfree int
	clock int64
	stats AttrStats
	next  mem.Sink
}

// NewAttributeCache builds the cache; next receives the L2 traffic.
func NewAttributeCache(cfg AttrCacheConfig, next mem.Sink) (*AttributeCache, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("tcor: attribute cache needs a next-level sink")
	}
	sets := cfg.PrimEntries / cfg.Ways
	c := &AttributeCache{
		cfg:   cfg,
		sets:  make([][]primLine, sets),
		attrs: make([]attrEntry, cfg.AttrEntries),
		next:  next,
	}
	backing := make([]primLine, cfg.PrimEntries)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.initFreeList()
	return c, nil
}

func (c *AttributeCache) initFreeList() {
	for i := range c.attrs {
		c.attrs[i] = attrEntry{next: int32(i) + 1}
	}
	c.attrs[len(c.attrs)-1].next = -1
	c.free = 0
	c.nfree = len(c.attrs)
}

// Config returns the normalized configuration.
func (c *AttributeCache) Config() AttrCacheConfig { return c.cfg }

// Stats returns a copy of the statistics.
func (c *AttributeCache) Stats() AttrStats { return c.stats }

// FreeAttrEntries returns the current number of free Attribute Buffer
// entries (for tests and invariant checks).
func (c *AttributeCache) FreeAttrEntries() int { return c.nfree }

// Contains reports whether a primitive is resident.
func (c *AttributeCache) Contains(prim uint32) bool {
	_, _, ok := c.lookup(prim)
	return ok
}

func (c *AttributeCache) setIndex(prim uint32) int {
	if c.cfg.XORIndex {
		return cache.XORIndex(trace.Key(prim), len(c.sets))
	}
	return cache.ModuloIndex(trace.Key(prim), len(c.sets))
}

// lookup is the Primitive Buffer tag probe: a primitive can only live in
// set setIndex(prim), so it compares the tags of that set's ways.
func (c *AttributeCache) lookup(prim uint32) (set, way int, ok bool) {
	set = c.setIndex(prim)
	for w := range c.sets[set] {
		if l := &c.sets[set][w]; l.valid && l.prim == prim {
			return set, w, true
		}
	}
	return set, -1, false
}

// allocAttrs takes n entries off the free list and links them; returns the
// ABP (index of the first). Caller must have checked nfree.
func (c *AttributeCache) allocAttrs(blocks []uint64) int32 {
	c.stats.BufWrites += int64(len(blocks))
	head := int32(-1)
	tail := int32(-1)
	for _, b := range blocks {
		e := c.free
		c.free = c.attrs[e].next
		c.nfree--
		c.attrs[e] = attrEntry{valid: true, next: -1, blockAddr: b}
		if head < 0 {
			head = e
		} else {
			c.attrs[tail].next = e
		}
		tail = e
	}
	return head
}

// releaseAttrs walks a primitive's attribute list back onto the free list.
func (c *AttributeCache) releaseAttrs(abp int32) {
	for e := abp; e >= 0; {
		nxt := c.attrs[e].next
		c.attrs[e] = attrEntry{next: c.free}
		c.free = e
		c.nfree++
		e = nxt
	}
}

// evictLine removes the line at (set, way), releasing its attributes and
// writing them back to the L2 if dirty (§III-C5).
func (c *AttributeCache) evictLine(set, way int) {
	l := &c.sets[set][way]
	c.stats.Evictions++
	if l.dirty {
		c.stats.DirtyEvictions++
		for e := l.abp; e >= 0; e = c.attrs[e].next {
			c.next.Access(mem.Request{
				Addr:       c.attrs[e].blockAddr,
				Write:      true,
				LastUse:    l.lastUse,
				HasLastUse: true,
			})
			c.stats.L2AttrWrites++
		}
	}
	c.releaseAttrs(l.abp)
	*l = primLine{}
}

// victim returns the way of the unlocked line with the greatest OPT Number
// in the set (§III-C6), -1 if every line is locked. Invalid lines win
// immediately. Ties break toward the least recently used line.
func (c *AttributeCache) victim(set int) int {
	lines := c.sets[set]
	best := -1
	for w := range lines {
		if !lines[w].valid {
			return w
		}
		if lines[w].lock || c.attrLocked(lines[w].abp) {
			continue
		}
		if best < 0 ||
			lines[w].optNum > lines[best].optNum ||
			(lines[w].optNum == lines[best].optNum && lines[w].stamp < lines[best].stamp) {
			best = w
		}
	}
	return best
}

// attrLocked reports whether the first attribute of a list is locked; the
// paper locks only the first entry since the rest are chained (§III-C3).
func (c *AttributeCache) attrLocked(abp int32) bool {
	return abp >= 0 && c.attrs[abp].lock
}

// ensureAttrSpace frees Attribute Buffer entries until n are available, by
// evicting additional primitives with OPT (§III-C3 "In case of a dearth of
// space"). It may not touch the protected line (the one just reserved).
// Returns false if locks prevent making space.
func (c *AttributeCache) ensureAttrSpace(n, protectSet, protectWay int) bool {
	for c.nfree < n {
		// Globally pick the unlocked line with the max OPT Number.
		bs, bw := -1, -1
		for s := range c.sets {
			for w := range c.sets[s] {
				l := &c.sets[s][w]
				if !l.valid || l.lock || c.attrLocked(l.abp) {
					continue
				}
				if s == protectSet && w == protectWay {
					continue
				}
				if bs < 0 {
					bs, bw = s, w
					continue
				}
				b := &c.sets[bs][bw]
				if l.optNum > b.optNum ||
					(l.optNum == b.optNum && l.stamp < b.stamp) {
					bs, bw = s, w
				}
			}
		}
		if bs < 0 {
			return false
		}
		c.evictLine(bs, bw)
	}
	return true
}

// Write handles a Polygon List Builder write of a whole primitive
// (§III-C4). firstUse is the request's OPT Number (traversal position of
// the first tile that will read the primitive); lastUse tags the blocks for
// the L2 dead-line logic; blocks are the primitive's PB-Attributes block
// addresses.
func (c *AttributeCache) Write(prim uint32, numAttrs uint8, firstUse, lastUse uint16, blocks []uint64) {
	c.clock++
	c.stats.Writes++
	c.stats.ProbeAccesses++
	if int(numAttrs) != len(blocks) {
		panic(fmt.Sprintf("tcor: write of prim %d: %d attrs but %d blocks", prim, numAttrs, len(blocks)))
	}
	// Re-write of a resident primitive (cannot happen in a well-formed
	// frame, where the PLB writes each primitive exactly once, but keep the
	// structure consistent): refresh the metadata in place.
	set, w, ok := c.lookup(prim)
	if ok {
		l := &c.sets[set][w]
		l.optNum = firstUse
		l.lastUse = lastUse
		l.dirty = true
		l.stamp = c.clock
		return
	}

	insert := func(way int) {
		if !c.ensureAttrSpace(len(blocks), set, way) {
			// Cannot make room (locks); fall back to bypass.
			c.bypass(lastUse, blocks)
			return
		}
		abp := c.allocAttrs(blocks)
		c.sets[set][way] = primLine{
			valid: true, dirty: true,
			prim: prim, optNum: firstUse, lastUse: lastUse,
			numAttrs: numAttrs, abp: abp, stamp: c.clock,
		}
		c.stats.WriteInserts++
	}

	// Free line available?
	for w := range c.sets[set] {
		if !c.sets[set][w].valid {
			insert(w)
			return
		}
	}

	if !c.cfg.WriteBypass {
		// Ablation: always evict with OPT, never bypass.
		w := c.victim(set)
		if w < 0 {
			c.bypass(lastUse, blocks)
			return
		}
		c.evictLine(set, w)
		insert(w)
		return
	}

	// §III-C4: compare the max OPT Number in the set with the request's.
	// If the resident max is greater (that primitive is read later than
	// this one), evict it; otherwise (including ties) bypass to the L2.
	w = c.victim(set)
	if w >= 0 && c.sets[set][w].valid && c.sets[set][w].optNum > firstUse {
		c.evictLine(set, w)
		insert(w)
		return
	}
	c.bypass(lastUse, blocks)
}

// bypass writes the primitive's attribute blocks straight to the L2.
func (c *AttributeCache) bypass(lastUse uint16, blocks []uint64) {
	c.stats.WriteBypasses++
	for _, b := range blocks {
		c.next.Access(mem.Request{Addr: b, Write: true, LastUse: lastUse, HasLastUse: true})
		c.stats.L2AttrWrites++
	}
}

// ReadResult describes the outcome of a Tile Fetcher read.
type ReadResult struct {
	Hit bool
	// ABP is the Attribute Buffer Pointer pushed to the output queue for
	// the Rasterizer.
	ABP int32
	// Stalled reports that no victim could be found because of locks; the
	// caller must drain the Rasterizer queue (unlocking primitives) and
	// retry.
	Stalled bool
}

// Read handles a Tile Fetcher read request carrying the PMD fields
// (§III-C3): the primitive ID, its attribute count and the OPT Number for
// this occurrence. On a hit the line's OPT Number is updated from the
// request and the line is locked until the Rasterizer consumes it. On a
// miss the victim line is reserved and the attributes are fetched from L2.
func (c *AttributeCache) Read(prim uint32, numAttrs uint8, optNum, lastUse uint16, blocks []uint64) ReadResult {
	c.clock++
	c.stats.Reads++
	c.stats.ProbeAccesses++
	// The Rasterizer will read every attribute of the primitive through
	// the ABP regardless of hit or miss.
	c.stats.BufReads += int64(numAttrs)
	if int(numAttrs) != len(blocks) {
		panic(fmt.Sprintf("tcor: read of prim %d: %d attrs but %d blocks", prim, numAttrs, len(blocks)))
	}
	set, way, ok := c.lookup(prim)
	if ok {
		c.stats.ReadHits++
		l := &c.sets[set][way]
		l.optNum = optNum
		l.stamp = c.clock
		l.lock = true
		if l.abp >= 0 {
			c.attrs[l.abp].lock = true
		}
		return ReadResult{Hit: true, ABP: l.abp}
	}

	c.stats.ReadMisses++
	w := c.victim(set)
	if w < 0 {
		c.stats.Reads--
		c.stats.ReadMisses--
		c.stats.Stalls++
		return ReadResult{Stalled: true}
	}
	if c.sets[set][w].valid {
		c.evictLine(set, w)
	}
	// Reserve and lock the line for the in-flight miss (§III-C3 Miss).
	c.sets[set][w] = primLine{
		valid: true, lock: true,
		prim: prim, optNum: optNum, lastUse: lastUse,
		numAttrs: numAttrs, stamp: c.clock, abp: -1,
	}

	if !c.ensureAttrSpace(len(blocks), set, w) {
		// Roll the reservation back and stall.
		c.sets[set][w] = primLine{}
		c.stats.Reads--
		c.stats.ReadMisses--
		c.stats.Stalls++
		return ReadResult{Stalled: true}
	}
	for _, b := range blocks {
		c.next.Access(mem.Request{Addr: b, LastUse: lastUse, HasLastUse: true})
		c.stats.L2AttrReads++
	}
	abp := c.allocAttrs(blocks)
	l := &c.sets[set][w]
	l.abp = abp
	c.attrs[abp].lock = true
	return ReadResult{Hit: false, ABP: abp}
}

// Unlock releases the lock the Rasterizer held on a primitive (§III-C3
// Rasterizer Read: after accessing the attributes through the ABP, the
// entries are unlocked).
func (c *AttributeCache) Unlock(prim uint32) {
	set, way, ok := c.lookup(prim)
	if !ok {
		return
	}
	l := &c.sets[set][way]
	l.lock = false
	if l.abp >= 0 {
		c.attrs[l.abp].lock = false
	}
}

// EndFrame recycles the cache at a frame boundary: the Parameter Buffer is
// rebuilt from scratch, so resident lines are invalidated without
// write-back (the driver reclaims the buffer).
func (c *AttributeCache) EndFrame() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = primLine{}
		}
	}
	c.initFreeList()
}

// CheckInvariants validates internal consistency (free-list accounting,
// tag placement: every valid line sits in its primitive's set, and no
// primitive is valid in two ways, so the set scan in lookup finds exactly
// one line). Tests call it; it returns an error rather than
// panicking so property tests can report failures.
func (c *AttributeCache) CheckInvariants() error {
	// Count free entries by walking the list.
	n := 0
	for e := c.free; e >= 0; e = c.attrs[e].next {
		if c.attrs[e].valid {
			return fmt.Errorf("tcor: free entry %d marked valid", e)
		}
		n++
		if n > len(c.attrs) {
			return fmt.Errorf("tcor: free list cycle")
		}
	}
	if n != c.nfree {
		return fmt.Errorf("tcor: free list has %d entries, counter says %d", n, c.nfree)
	}
	used := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if !l.valid {
				continue
			}
			if want := c.setIndex(l.prim); s != want {
				return fmt.Errorf("tcor: prim %d sits in set %d, maps to set %d", l.prim, s, want)
			}
			for w2 := w + 1; w2 < len(c.sets[s]); w2++ {
				if o := &c.sets[s][w2]; o.valid && o.prim == l.prim {
					return fmt.Errorf("tcor: prim %d valid in ways %d and %d of set %d", l.prim, w, w2, s)
				}
			}
			cnt := 0
			for e := l.abp; e >= 0; e = c.attrs[e].next {
				if !c.attrs[e].valid {
					return fmt.Errorf("tcor: prim %d links invalid attr entry %d", l.prim, e)
				}
				cnt++
			}
			if l.abp >= 0 && cnt != int(l.numAttrs) {
				return fmt.Errorf("tcor: prim %d links %d attrs, wants %d", l.prim, cnt, l.numAttrs)
			}
			used += cnt
		}
	}
	if used+c.nfree != len(c.attrs) {
		return fmt.Errorf("tcor: %d used + %d free != %d entries", used, c.nfree, len(c.attrs))
	}
	return nil
}
