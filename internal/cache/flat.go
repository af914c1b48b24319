package cache

import (
	"fmt"

	"tcor/internal/trace"
)

// FlatLRU is a packed set-associative LRU tag store: one tag column and one
// age column indexed by slot (set*ways + way), a modulo set index and no
// Policy dispatch. It is the engine of the caches on the simulator's hot
// path — the Raster Pipeline's texture caches use it whole through Read,
// and the L2 builds its dead-line replacement on Lookup, Victim, Fill and
// the columns, keeping its own per-slot metadata beside them.
//
// A tag holds key+1, so the zero tag marks an invalid slot (keys are block
// indices, far below the one key this excludes). An age is the access
// clock at the slot's last touch; clocks start at 1, and invalid slots keep
// age 0, so the first least-recently-used slot of a set is also its first
// invalid one when it has any. Replacement therefore matches
// Cache with NewLRU exactly: hits, victims, contents in set/way order and
// Stats for a read-only stream. The store keeps no dirty state; callers
// with writes keep their own.
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
