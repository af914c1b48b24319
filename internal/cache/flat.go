package cache

import (
	"fmt"

	"tcor/internal/trace"
)

// FlatLRU is a packed set-associative LRU tag store: one tag column and one
// age column indexed by slot (set*ways + way), a modulo set index and no
// Policy dispatch. It is the engine of every cache on the simulator's hot
// path: the read-only texture and vertex caches use it whole through Read,
// WriteBackLRU adds a dirty column for the caches that are written, and
// the L2 builds its dead-line replacement on Lookup, Victim, Fill and the
// columns, keeping its own per-slot metadata beside them.
//
// A tag holds key+1, so the zero tag marks an invalid slot (keys are block
// indices, far below the one key this excludes). An age is the access
// clock at the slot's last touch; clocks start at 1, and invalid slots keep
// age 0, so the first least-recently-used slot of a set is also its first
// invalid one when it has any. Replacement therefore matches
// Cache with NewLRU exactly: hits, victims, contents in set/way order and
// Stats for a read-only stream. The store keeps no dirty state; callers
// with writes keep their own, as WriteBackLRU does.
type FlatLRU struct {
	tags  []uint64
	ages  []int64
	ways  int
	sets  uint64
	pow2  bool // sets is a power of two: index by mask, not division
	clock int64
	stats Stats
}

// NewFlatLRU builds a store with cfg's geometry. cfg must pass Validate and
// use the modulo index (nil or ModuloIndex); WriteAllocate is irrelevant to
// a read-only store.
func NewFlatLRU(cfg Config) (*FlatLRU, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if !sameIndex(cfg.Index, ModuloIndex) {
		return nil, fmt.Errorf("cache: FlatLRU indexes by modulo only")
	}
	sets := uint64(cfg.Lines / cfg.Ways)
	return &FlatLRU{
		tags: make([]uint64, cfg.Lines),
		ages: make([]int64, cfg.Lines),
		ways: cfg.Ways,
		sets: sets,
		pow2: sets&(sets-1) == 0,
	}, nil
}

// Stats returns the counters Read accumulated.
func (c *FlatLRU) Stats() Stats { return c.stats }

// base returns the first slot of key's set.
func (c *FlatLRU) base(key uint64) int {
	if c.pow2 {
		return int(key&(c.sets-1)) * c.ways
	}
	return int(key%c.sets) * c.ways
}

// Read performs one read of key: on a hit it refreshes the line, on a miss
// it fills the set's least-recently-used slot. It reports whether key hit.
func (c *FlatLRU) Read(key uint64) bool {
	c.stats.Accesses++
	slot, base := c.Lookup(key)
	if slot >= 0 {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	c.stats.ReadMisses++
	c.stats.Fills++
	c.Fill(c.Victim(base), key)
	return false
}

// Lookup advances the access clock and finds key. On a hit it stamps and
// returns the slot holding key; on a miss it returns -1. base is the first
// slot of key's set either way. Lookup touches no counters.
func (c *FlatLRU) Lookup(key uint64) (slot, base int) {
	c.clock++
	base = c.base(key)
	tag := key + 1
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			c.ages[base+w] = c.clock
			return base + w, base
		}
	}
	return -1, base
}

// Victim returns the set's least-recently-used slot — its first invalid
// slot when it has one — given the set's first slot.
func (c *FlatLRU) Victim(base int) int {
	ages := c.ages[base : base+c.ways]
	v, oldest := 0, ages[0]
	for w, a := range ages {
		if a < oldest {
			v, oldest = w, a
		}
	}
	return base + v
}

// Fill stores key in slot, stamped with the current access clock.
func (c *FlatLRU) Fill(slot int, key uint64) {
	c.tags[slot] = key + 1
	c.ages[slot] = c.clock
}

// Valid reports whether slot holds a line.
func (c *FlatLRU) Valid(slot int) bool { return c.tags[slot] != 0 }

// Key returns the key a valid slot holds.
func (c *FlatLRU) Key(slot int) uint64 { return c.tags[slot] - 1 }

// Age returns the access clock at slot's last touch (0 when invalid).
func (c *FlatLRU) Age(slot int) int64 { return c.ages[slot] }

// Invalidate empties slot.
func (c *FlatLRU) Invalidate(slot int) {
	c.tags[slot] = 0
	c.ages[slot] = 0
}

// ResidentKeys returns the keys currently stored, in set/way order. Intended
// for tests and debugging.
func (c *FlatLRU) ResidentKeys() []trace.Key {
	var keys []trace.Key
	for _, t := range c.tags {
		if t != 0 {
			keys = append(keys, trace.Key(t-1))
		}
	}
	return keys
}

// WriteBackLRU is a write-allocate, write-back LRU cache on a FlatLRU: the
// flat tag store plus a dirty column indexed by the same slot, as the L2
// keeps its flags. It matches Cache with NewLRU and WriteAllocate exactly:
// hits, evicted victims and their dirtiness, contents in set/way order and
// Stats, FlushAll included. The frame simulator's baseline Tile Cache and
// the TCOR Primitive List Cache run on it.
type WriteBackLRU struct {
	lru   *FlatLRU
	dirty []bool
	stats Stats
}

// NewWriteBackLRU builds a cache with cfg's geometry. cfg must pass
// Validate, use the modulo index and set WriteAllocate.
func NewWriteBackLRU(cfg Config) (*WriteBackLRU, error) {
	if !cfg.WriteAllocate {
		return nil, fmt.Errorf("cache: WriteBackLRU is write-allocate only")
	}
	lru, err := NewFlatLRU(cfg)
	if err != nil {
		return nil, err
	}
	return &WriteBackLRU{lru: lru, dirty: make([]bool, len(lru.tags))}, nil
}

// Stats returns the counters Access and FlushAll accumulated.
func (c *WriteBackLRU) Stats() Stats { return c.stats }

// Access performs one access of key, a write when write is set, and
// returns the slot that now holds key with what the access did. A miss
// fills the set's least-recently-used slot; res reports the valid line it
// displaced, if any, and whether that line was dirty. The victim's slot is
// the returned slot, so per-slot metadata a caller keeps beside the cache
// still describes the victim until the caller overwrites it.
func (c *WriteBackLRU) Access(key uint64, write bool) (slot int, res AccessResult) {
	c.stats.Accesses++
	slot, base := c.lru.Lookup(key)
	if slot >= 0 {
		c.stats.Hits++
		if write {
			c.dirty[slot] = true
		}
		return slot, AccessResult{Hit: true}
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	c.stats.Fills++
	slot = c.lru.Victim(base)
	res.Fill = true
	if c.lru.Valid(slot) {
		res.Evicted, res.Victim, res.VictimDirty = true, trace.Key(c.lru.Key(slot)), c.dirty[slot]
		if res.VictimDirty {
			c.stats.Writebacks++
		}
	}
	c.lru.Fill(slot, key)
	c.dirty[slot] = write
	return slot, res
}

// FlushAll invalidates every line. Like Cache.FlushAll it counts each
// dirty line it drops in Writebacks, whether or not the caller writes it
// anywhere.
func (c *WriteBackLRU) FlushAll() {
	for s, d := range c.dirty {
		if d {
			c.stats.Writebacks++
		}
		c.dirty[s] = false
		c.lru.Invalidate(s)
	}
}
