// Package cache implements a trace-driven set-associative cache model with
// pluggable replacement policies — LRU, MRU, FIFO, Random, NRU, tree-PLRU,
// the insertion family (LIP/BIP/DIP), the RRIP family (SRRIP/BRRIP/DRRIP),
// Shepherd Cache, Hawkeye, SHiP and offline OPT/Belady — plus pluggable
// set-index functions (modulo and XOR-based placement), Mattson one-pass
// stack-distance profiles, 3C miss classification and the paper's analytic
// miss lower bound.
//
// The model is deliberately structural rather than byte-accurate: a cache is
// a collection of sets of lines, each line holding one Key (a line address
// or, for the paper's Attribute Cache studies, a primitive ID). The cost of
// a miss — fetching data, writing back a victim — is reported to the caller
// through AccessResult so that multi-level hierarchies can propagate
// traffic downward.
//
// Two engines share Config and Stats. Cache, driven through the Policy
// interface, is the generic one: the policy library, the trace-driven
// experiments and the arena run on it. FlatLRU is a packed LRU tag store
// with no policy dispatch, and every cache on the frame hot path runs on
// it: the Raster Pipeline's texture caches and the Vertex Cache read it
// directly, the baseline Tile Cache and the TCOR Primitive List Cache use
// WriteBackLRU (FlatLRU plus a dirty column), and the L2 (internal/l2)
// builds its §III-D replacement on it. Both flat engines are pinned to
// Cache with NewLRU by differential tests.
package cache

import (
	"fmt"

	"tcor/internal/stats"
	"tcor/internal/trace"
)

// Config describes a cache's geometry.
type Config struct {
	// Lines is the total number of lines in the cache. Use LinesFor to
	// derive it from a byte capacity.
	Lines int
	// Ways is the set associativity. 0 or Lines means fully associative;
	// 1 means direct-mapped.
	Ways int
	// Index chooses the set for a key. Nil means ModuloIndex.
	Index IndexFunc
	// WriteAllocate controls whether write misses allocate a line (default
	// true, write-allocate write-back, as in the paper's hierarchy).
	WriteAllocate bool
}

// LinesFor returns the number of lineBytes-sized lines in a cache of
// sizeBytes capacity.
func LinesFor(sizeBytes, lineBytes int) int {
	if lineBytes <= 0 {
		return 0
	}
	return sizeBytes / lineBytes
}

// Validate checks the geometry and returns a normalized copy with defaults
// applied. Invalid geometries are hard errors, never silent adjustments:
// Ways > Lines describes a set wider than the cache (historically this
// clamped to fully associative, masking sizing bugs in sweep code), and an
// XOR-based index with a non-power-of-two set count silently degrades to a
// different hash than the one asked for.
func (c Config) Validate() (Config, error) {
	if c.Lines <= 0 {
		return c, fmt.Errorf("cache: config needs at least one line, got %d", c.Lines)
	}
	if c.Ways < 0 {
		return c, fmt.Errorf("cache: negative associativity %d", c.Ways)
	}
	if c.Ways > c.Lines {
		return c, fmt.Errorf("cache: %d ways exceed %d lines (use Ways=0 or Ways=Lines for fully associative)", c.Ways, c.Lines)
	}
	if c.Ways == 0 {
		c.Ways = c.Lines // fully associative
	}
	if c.Lines%c.Ways != 0 {
		return c, fmt.Errorf("cache: %d lines not divisible by %d ways", c.Lines, c.Ways)
	}
	if sets := c.Lines / c.Ways; sameIndex(c.Index, XORIndex) && sets&(sets-1) != 0 {
		return c, fmt.Errorf("cache: XOR index needs a power-of-two set count, got %d sets (%d lines / %d ways)", sets, c.Lines, c.Ways)
	}
	if c.Index == nil {
		c.Index = ModuloIndex
	}
	return c, nil
}

// Line is one cache line.
type Line struct {
	Key   trace.Key
	Valid bool
	Dirty bool
	// Replacement metadata, shared by the policies that need them.
	LastUse int64 // recency timestamp (LRU/MRU)
	Seq     int64 // fill order (FIFO)
	RRPV    uint8 // re-reference prediction value (RRIP family)
	NextUse int64 // Belady next-use index (OPT)
	// Sig and Reused are scratch state for signature-trained policies
	// (SHiP): the signature the line was inserted under, and whether it has
	// been re-referenced since.
	Sig    uint32
	Reused bool
}

// AccessResult describes the consequences of one access.
type AccessResult struct {
	Hit bool
	// Fill reports whether a line was allocated for the key.
	Fill bool
	// Bypassed reports that a miss did not allocate (write-no-allocate or a
	// policy bypass) and the access must be serviced by the next level.
	Bypassed bool
	// Evicted reports that a valid victim was displaced; Victim holds its
	// key and VictimDirty whether it must be written back.
	Evicted     bool
	Victim      trace.Key
	VictimDirty bool
}

// Stats accumulates access statistics.
type Stats struct {
	Accesses    int64
	Hits        int64
	Misses      int64
	ReadMisses  int64
	WriteMisses int64
	Writebacks  int64
	Bypasses    int64
	Fills       int64
}

// MissRatio returns Misses/Accesses (0 for an untouched cache).
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRatio returns Hits/Accesses (0 for an untouched cache).
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Publish stores the counters into a stats registry under prefix (e.g.
// "l1.vertex" yields "l1.vertex.hits").
func (s Stats) Publish(r *stats.Registry, prefix string) {
	r.Counter(prefix + ".accesses").Store(s.Accesses)
	r.Counter(prefix + ".hits").Store(s.Hits)
	r.Counter(prefix + ".misses").Store(s.Misses)
	r.Counter(prefix + ".readMisses").Store(s.ReadMisses)
	r.Counter(prefix + ".writeMisses").Store(s.WriteMisses)
	r.Counter(prefix + ".writebacks").Store(s.Writebacks)
	r.Counter(prefix + ".bypasses").Store(s.Bypasses)
	r.Counter(prefix + ".fills").Store(s.Fills)
}

// RegisterStatsInvariants registers the self-consistency checks every cache
// published under prefix must satisfy: every access is a hit or a miss,
// every miss is a read or a write miss, and every miss either fills a line
// or bypasses.
func RegisterStatsInvariants(r *stats.Registry, prefix string) {
	r.RegisterInvariant(prefix+".hits+misses==accesses", func(s stats.Snapshot) error {
		if h, m, a := s.Get(prefix+".hits"), s.Get(prefix+".misses"), s.Get(prefix+".accesses"); h+m != a {
			return fmt.Errorf("%d hits + %d misses != %d accesses", h, m, a)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".readMisses+writeMisses==misses", func(s stats.Snapshot) error {
		if rm, wm, m := s.Get(prefix+".readMisses"), s.Get(prefix+".writeMisses"), s.Get(prefix+".misses"); rm+wm != m {
			return fmt.Errorf("%d read + %d write misses != %d misses", rm, wm, m)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".fills+bypasses==misses", func(s stats.Snapshot) error {
		if f, b, m := s.Get(prefix+".fills"), s.Get(prefix+".bypasses"), s.Get(prefix+".misses"); f+b != m {
			return fmt.Errorf("%d fills + %d bypasses != %d misses", f, b, m)
		}
		return nil
	})
}

// Cache is a set-associative cache with a replacement policy.
type Cache struct {
	cfg    Config
	sets   [][]Line
	policy Policy
	stats  Stats
	clock  int64
	// whereIs accelerates lookup for fully-associative configurations where
	// a linear scan of the single huge set would dominate runtime.
	whereIs map[trace.Key]int
}

// New builds a cache with the given geometry and replacement policy.
func New(cfg Config, policy Policy) (*Cache, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	numSets := cfg.Lines / cfg.Ways
	sets := make([][]Line, numSets)
	backing := make([]Line, cfg.Lines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c := &Cache{
		cfg:    cfg,
		sets:   sets,
		policy: policy,
	}
	if numSets == 1 {
		c.whereIs = make(map[trace.Key]int, cfg.Ways*2)
	}
	policy.Reset(numSets, cfg.Ways)
	return c, nil
}

// MustNew is New that panics on configuration errors; for tests and tables
// of known-good configurations.
func MustNew(cfg Config, policy Policy) *Cache {
	c, err := New(cfg, policy)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the normalized configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.sets) }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Policy returns the cache's replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// Contains reports whether key is currently resident.
func (c *Cache) Contains(key trace.Key) bool {
	_, _, ok := c.find(key)
	return ok
}

func (c *Cache) setIndex(key trace.Key) int {
	return c.cfg.Index(key, len(c.sets))
}

func (c *Cache) find(key trace.Key) (set, way int, ok bool) {
	set = c.setIndex(key)
	if c.whereIs != nil {
		if w, hit := c.whereIs[key]; hit {
			return set, w, true
		}
		return set, -1, false
	}
	lines := c.sets[set]
	for w := range lines {
		if lines[w].Valid && lines[w].Key == key {
			return set, w, true
		}
	}
	return set, -1, false
}

// Access performs one access and returns its consequences. The NextUse field
// of acc is consulted only by the OPT policy.
func (c *Cache) Access(acc trace.Access) AccessResult {
	c.clock++
	c.stats.Accesses++
	set, way, ok := c.find(acc.Key)
	if ok {
		c.stats.Hits++
		line := &c.sets[set][way]
		line.LastUse = c.clock
		line.NextUse = acc.NextUse
		if acc.Write {
			line.Dirty = true
		}
		c.policy.Touch(set, way, &c.sets[set][way], acc)
		return AccessResult{Hit: true}
	}

	c.stats.Misses++
	if acc.Write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	if acc.Write && !c.cfg.WriteAllocate {
		c.stats.Bypasses++
		return AccessResult{Bypassed: true}
	}
	return c.fill(set, acc)
}

// fill allocates a line for acc in set, evicting if necessary.
func (c *Cache) fill(set int, acc trace.Access) AccessResult {
	res := AccessResult{Fill: true}
	lines := c.sets[set]
	way := -1
	for w := range lines {
		if !lines[w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.Victim(set, lines)
		victim := &lines[way]
		res.Evicted = true
		res.Victim = victim.Key
		res.VictimDirty = victim.Dirty
		if victim.Dirty {
			c.stats.Writebacks++
		}
		if c.whereIs != nil {
			delete(c.whereIs, victim.Key)
		}
	}
	c.stats.Fills++
	lines[way] = Line{
		Key:     acc.Key,
		Valid:   true,
		Dirty:   acc.Write,
		LastUse: c.clock,
		Seq:     c.clock,
		NextUse: acc.NextUse,
	}
	if c.whereIs != nil {
		c.whereIs[acc.Key] = way
	}
	c.policy.Insert(set, way, &lines[way], acc)
	return res
}

// Invalidate removes key from the cache if present, returning whether it was
// dirty. Used by flush-style operations.
func (c *Cache) Invalidate(key trace.Key) (present, dirty bool) {
	set, way, ok := c.find(key)
	if !ok {
		return false, false
	}
	dirty = c.sets[set][way].Dirty
	c.sets[set][way] = Line{}
	if c.whereIs != nil {
		delete(c.whereIs, key)
	}
	return true, dirty
}

// FlushAll invalidates every line, returning the dirty keys that would be
// written back. The statistics keep accumulating across the flush.
func (c *Cache) FlushAll() []trace.Key {
	var dirty []trace.Key
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.Valid && l.Dirty {
				dirty = append(dirty, l.Key)
				c.stats.Writebacks++
			}
			*l = Line{}
		}
	}
	if c.whereIs != nil {
		clear(c.whereIs)
	}
	return dirty
}

// ResidentKeys returns the keys currently stored, in set/way order. Intended
// for tests and debugging.
func (c *Cache) ResidentKeys() []trace.Key {
	var keys []trace.Key
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].Valid {
				keys = append(keys, c.sets[s][w].Key)
			}
		}
	}
	return keys
}

// Simulate runs an entire annotated trace through a fresh cache with the
// given configuration and policy and returns the final statistics.
func Simulate(cfg Config, policy Policy, tr trace.Trace) (Stats, error) {
	c, err := New(cfg, policy)
	if err != nil {
		return Stats{}, err
	}
	for _, a := range tr {
		c.Access(a)
	}
	return c.Stats(), nil
}
