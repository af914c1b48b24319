// Package l2 models the shared L2 cache with TCOR's enhancements
// (paper §III-D): every line is tagged with the Parameter Buffer section it
// belongs to (2-bit field) and, for PB data, the traversal position of the
// last tile that will use it (12-bit field). As the Tile Fetcher retires
// tiles, lines whose last-use tile has already been processed become dead;
// the replacement policy evicts dead lines first — dropping their write-back
// even when dirty — then non-PB lines, then live PB lines, with LRU inside
// each priority class.
//
// Tags and LRU ages live in a cache.FlatLRU, the tag store the L1s use
// too; the last-use tile and a flag byte (dirty, tagged, Parameter Buffer)
// sit in side columns indexed by the same slot, and the replacement
// priority is a class function over those columns.
package l2

import (
	"fmt"
	"math"

	"tcor/internal/cache"
	"tcor/internal/geom"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/stats"
)

// Config describes the L2.
type Config struct {
	SizeBytes int
	Ways      int
	// Enhanced enables the TCOR dead-line replacement policy; when false
	// the cache is plain LRU (the baseline and the "TCOR without L2
	// enhancements" ablation).
	Enhanced bool
}

// DefaultConfig returns the Table I configuration: 1 MiB, 8-way.
func DefaultConfig(enhanced bool) Config {
	return Config{SizeBytes: 1 << 20, Ways: 8, Enhanced: enhanced}
}

// Stats counts L2 events. The counters satisfy, by construction:
//
//	Hits + Misses == Reads + Writes
//	MemReads <= Misses                 (write misses allocate without fetch)
//	DeadEvictions + LiveEvictions == Evictions
//	DroppedWritebacks <= DeadEvictions (only dead lines drop write-backs)
//	Writebacks + DroppedWritebacks <= Evictions
//	Enhanced == false => DeadEvictions == DroppedWritebacks == 0
//
// RegisterStatsInvariants enforces these on a published registry.
type Stats struct {
	Reads, Writes     int64
	Hits, Misses      int64
	Evictions         int64 // valid lines displaced by fills (not frame-end invalidations)
	Writebacks        int64 // dirty evictions written to memory
	DroppedWritebacks int64 // dirty dead lines evicted without write-back
	DeadEvictions     int64 // evictions that found a dead line
	MemReads          int64 // fills requested from memory
}

// LiveEvictions returns the evictions that displaced a line still alive.
func (s Stats) LiveEvictions() int64 { return s.Evictions - s.DeadEvictions }

// Publish stores the counters into a stats registry under prefix.
func (s Stats) Publish(r *stats.Registry, prefix string) {
	r.Counter(prefix + ".reads").Store(s.Reads)
	r.Counter(prefix + ".writes").Store(s.Writes)
	r.Counter(prefix + ".hits").Store(s.Hits)
	r.Counter(prefix + ".misses").Store(s.Misses)
	r.Counter(prefix + ".evictions").Store(s.Evictions)
	r.Counter(prefix + ".writebacks").Store(s.Writebacks)
	r.Counter(prefix + ".droppedWritebacks").Store(s.DroppedWritebacks)
	r.Counter(prefix + ".deadEvictions").Store(s.DeadEvictions)
	r.Counter(prefix + ".memReads").Store(s.MemReads)
}

// RegisterStatsInvariants registers the Stats consistency identities listed
// on the type. enhanced mirrors Config.Enhanced: the baseline L2 must never
// report dead-line activity.
func RegisterStatsInvariants(r *stats.Registry, prefix string, enhanced bool) {
	r.RegisterInvariant(prefix+".hits+misses==accesses", func(s stats.Snapshot) error {
		if h, m, a := s.Get(prefix+".hits"), s.Get(prefix+".misses"), s.Get(prefix+".reads")+s.Get(prefix+".writes"); h+m != a {
			return fmt.Errorf("%d hits + %d misses != %d reads+writes", h, m, a)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".memReads<=misses", func(s stats.Snapshot) error {
		if mr, m := s.Get(prefix+".memReads"), s.Get(prefix+".misses"); mr > m {
			return fmt.Errorf("%d memory fills exceed %d misses", mr, m)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".droppedWritebacks<=deadEvictions", func(s stats.Snapshot) error {
		if d, de := s.Get(prefix+".droppedWritebacks"), s.Get(prefix+".deadEvictions"); d > de {
			return fmt.Errorf("%d dropped write-backs exceed %d dead evictions", d, de)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".deadEvictions<=evictions", func(s stats.Snapshot) error {
		if de, e := s.Get(prefix+".deadEvictions"), s.Get(prefix+".evictions"); de > e {
			return fmt.Errorf("%d dead evictions exceed %d total evictions", de, e)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".writebacks+dropped<=evictions", func(s stats.Snapshot) error {
		if wb, d, e := s.Get(prefix+".writebacks"), s.Get(prefix+".droppedWritebacks"), s.Get(prefix+".evictions"); wb+d > e {
			return fmt.Errorf("%d write-backs + %d dropped exceed %d evictions", wb, d, e)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".baselineNeverDropsWritebacks", func(s stats.Snapshot) error {
		if enhanced {
			return nil
		}
		if d, de := s.Get(prefix+".droppedWritebacks"), s.Get(prefix+".deadEvictions"); d != 0 || de != 0 {
			return fmt.Errorf("baseline L2 reported %d dropped write-backs, %d dead evictions", d, de)
		}
		return nil
	})
}

// Per-slot flag bits of Cache.flags.
const (
	dirty  uint8 = 1 << iota
	tagged       // lastTile is known (PB lines in enhanced mode)
	pb           // the line holds Parameter Buffer data (set at fill)
)

// Cache is the shared L2.
type Cache struct {
	cfg Config
	lru *cache.FlatLRU
	// lastTile is the traversal position of the last tile using the line,
	// valid when its tagged flag is set.
	lastTile []uint16
	flags    []uint8
	stats    Stats
	next     mem.Sink
	// retired is the traversal position of the last tile the Tile Fetcher
	// finished; -1 before any tile retires.
	retired int
	// trace, when non-nil, records every eviction decision (nil = off; a
	// nil Ring is a no-op recorder, so the hot path pays one nil check).
	trace *stats.Ring
}

// New builds the L2; next receives main-memory traffic.
func New(cfg Config, next mem.Sink) (*Cache, error) {
	if next == nil {
		return nil, fmt.Errorf("l2: needs a next-level sink")
	}
	lines := cfg.SizeBytes / memmap.BlockBytes
	if cfg.Ways <= 0 || lines <= 0 || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("l2: bad geometry %d bytes %d ways", cfg.SizeBytes, cfg.Ways)
	}
	if sets := lines / cfg.Ways; sets&(sets-1) != 0 {
		return nil, fmt.Errorf("l2: %d sets is not a power of two", sets)
	}
	lru, err := cache.NewFlatLRU(cache.Config{Lines: lines, Ways: cfg.Ways})
	if err != nil {
		return nil, fmt.Errorf("l2: %w", err)
	}
	return &Cache{
		cfg:      cfg,
		lru:      lru,
		lastTile: make([]uint16, lines),
		flags:    make([]uint8, lines),
		next:     next,
		retired:  -1,
	}, nil
}

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetEvictionTrace attaches a bounded event ring that records the last N
// eviction decisions (priority class, set, victim key, last-use tile tag,
// dropped-write-back flag). Pass nil to disable. For debugging replacement
// behaviour; it does not affect simulation results.
func (c *Cache) SetEvictionTrace(r *stats.Ring) { c.trace = r }

// className names the replacement priority classes for the event trace.
var className = [...]string{"dead", "non-PB", "live-PB"}

// Access implements mem.Sink.
func (c *Cache) Access(r mem.Request) {
	if r.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	key := memmap.Block(r.Addr)
	slot, base := c.lru.Lookup(key)
	if slot >= 0 {
		c.stats.Hits++
	} else {
		c.stats.Misses++
		// Fill. Reads fetch the block from memory; writes from the L1s are
		// full-block transfers (whole attribute blocks or full-line
		// write-backs), so write misses allocate without a fetch.
		if !r.Write {
			c.stats.MemReads++
			c.next.Access(mem.Request{Addr: memmap.BlockAddr(key)})
		}
		slot = c.victim(base)
		if c.lru.Valid(slot) {
			c.evict(slot)
		}
		c.lru.Fill(slot, key)
		c.lastTile[slot] = r.LastUse
		c.flags[slot] = 0
		if r.Region().IsParameterBuffer() {
			c.flags[slot] = pb
		}
	}
	if r.Write {
		c.flags[slot] |= dirty
	}
	if r.HasLastUse {
		c.lastTile[slot] = r.LastUse
		c.flags[slot] |= tagged
	}
}

// victim selects a slot of the set starting at base: an invalid slot if
// any; otherwise, in enhanced mode, the best line by priority class (dead >
// non-PB > live PB) with LRU inside the class (§III-D2), and plain LRU
// without the enhancement.
func (c *Cache) victim(base int) int {
	if !c.cfg.Enhanced {
		return c.lru.Victim(base)
	}
	// One comparison per way: the class above the age, which stays far
	// below 2^56.
	best, bestRank := base, uint64(math.MaxUint64)
	for s := base; s < base+c.cfg.Ways; s++ {
		if !c.lru.Valid(s) {
			return s
		}
		if rank := uint64(c.class(s))<<56 | uint64(c.lru.Age(s)); rank < bestRank {
			best, bestRank = s, rank
		}
	}
	return best
}

// class returns a valid slot's replacement priority class: 0 dead, 1
// non-PB, 2 live PB. Lower evicts first. A line is dead when its data can
// never be read again: it belongs to the Parameter Buffer, its last-use
// tile is known, and that tile has retired (§III-D1).
func (c *Cache) class(slot int) int {
	if c.flags[slot]&pb == 0 {
		return 1
	}
	if c.cfg.Enhanced && c.flags[slot]&tagged != 0 && c.retired >= int(c.lastTile[slot]) {
		return 0
	}
	return 2
}

// evict writes a dirty victim back to memory — unless it is dead, in which
// case the write-back is dropped (§III-D2: "it does not have to be written
// back to Main Memory even if it is dirty").
func (c *Cache) evict(slot int) {
	c.stats.Evictions++
	key, cl, isDirty := c.lru.Key(slot), c.class(slot), c.flags[slot]&dirty != 0
	dead := cl == 0
	if c.trace != nil {
		c.trace.Record(stats.Event{
			Kind:    "evict",
			Class:   className[cl],
			Set:     slot / c.cfg.Ways,
			Key:     key,
			Tile:    int(c.lastTile[slot]),
			Dirty:   isDirty,
			Dropped: dead && isDirty,
		})
	}
	if dead {
		c.stats.DeadEvictions++
		if isDirty {
			c.stats.DroppedWritebacks++
		}
		return
	}
	if isDirty {
		c.stats.Writebacks++
		c.next.Access(mem.Request{Addr: memmap.BlockAddr(key), Write: true})
	}
}

// TileRetired implements mem.Sink: the Tile Fetcher finished the tile at
// traversal position pos, so every PB line tagged with a last-use position
// <= pos is now dead.
func (c *Cache) TileRetired(pos uint16, tile geom.TileID) {
	if int(pos) > c.retired {
		c.retired = int(pos)
	}
	c.next.TileRetired(pos, tile)
}

// EndFrame implements mem.Sink: the Parameter Buffer is recycled, so PB
// lines are invalidated without write-back in *both* modes (the driver
// reclaims the buffer; this is not part of the TCOR enhancement). The
// retired-tile counter resets for the next frame.
func (c *Cache) EndFrame() {
	for s, f := range c.flags {
		if f&pb != 0 && c.lru.Valid(s) {
			c.lru.Invalidate(s)
		}
	}
	c.retired = -1
	c.next.EndFrame()
}

// Occupancy returns how many valid lines currently hold data of each
// region; for tests and reports.
func (c *Cache) Occupancy() map[memmap.Region]int {
	out := make(map[memmap.Region]int)
	for s := range c.flags {
		if c.lru.Valid(s) {
			out[memmap.RegionOf(memmap.BlockAddr(c.lru.Key(s)))]++
		}
	}
	return out
}
