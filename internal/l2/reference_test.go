package l2

import (
	"tcor/internal/geom"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/stats"
)

// refCache is the L2 as it was before its tags moved into cache.FlatLRU:
// an array of line records per set, its own set scan and its own LRU
// victim. It is kept only as the oracle of TestL2MatchesLineReference and
// must not be optimised.
type refCache struct {
	cfg     Config
	sets    [][]refLine
	setMask uint64
	clock   int64
	stats   Stats
	next    mem.Sink
	retired int
	trace   *stats.Ring
}

type refLine struct {
	key      uint64
	valid    bool
	dirty    bool
	lastUse  int64
	region   memmap.Region
	lastTile uint16
	tagged   bool
}

func newRef(cfg Config, next mem.Sink) *refCache {
	lines := cfg.SizeBytes / memmap.BlockBytes
	sets := lines / cfg.Ways
	c := &refCache{cfg: cfg, sets: make([][]refLine, sets), setMask: uint64(sets - 1), next: next, retired: -1}
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	return c
}

func (c *refCache) isDead(l *refLine) bool {
	return c.cfg.Enhanced && l.tagged && l.region.IsParameterBuffer() &&
		c.retired >= 0 && int(l.lastTile) <= c.retired
}

func (c *refCache) Access(r mem.Request) {
	c.clock++
	if r.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	key := memmap.Block(r.Addr)
	set := c.sets[key&c.setMask]
	for w := range set {
		if set[w].valid && set[w].key == key {
			c.stats.Hits++
			l := &set[w]
			l.lastUse = c.clock
			if r.Write {
				l.dirty = true
			}
			if r.HasLastUse {
				l.lastTile = r.LastUse
				l.tagged = true
			}
			return
		}
	}
	c.stats.Misses++
	if !r.Write {
		c.stats.MemReads++
		c.next.Access(mem.Request{Addr: memmap.BlockAddr(key)})
	}
	w := c.victim(set)
	if set[w].valid {
		c.evict(int(key&c.setMask), &set[w])
	}
	set[w] = refLine{
		key:      key,
		valid:    true,
		dirty:    r.Write,
		lastUse:  c.clock,
		region:   r.Region(),
		lastTile: r.LastUse,
		tagged:   r.HasLastUse,
	}
}

func (c *refCache) victim(set []refLine) int {
	for w := range set {
		if !set[w].valid {
			return w
		}
	}
	if !c.cfg.Enhanced {
		best := 0
		for w := 1; w < len(set); w++ {
			if set[w].lastUse < set[best].lastUse {
				best = w
			}
		}
		return best
	}
	best := 0
	bestClass := c.class(&set[0])
	for w := 1; w < len(set); w++ {
		cl := c.class(&set[w])
		if cl < bestClass || (cl == bestClass && set[w].lastUse < set[best].lastUse) {
			best, bestClass = w, cl
		}
	}
	return best
}

func (c *refCache) class(l *refLine) int {
	if c.isDead(l) {
		return 0
	}
	if !l.region.IsParameterBuffer() {
		return 1
	}
	return 2
}

func (c *refCache) evict(set int, l *refLine) {
	c.stats.Evictions++
	dead := c.isDead(l)
	if c.trace != nil {
		c.trace.Record(stats.Event{
			Kind:    "evict",
			Class:   []string{"dead", "non-PB", "live-PB"}[c.class(l)],
			Set:     set,
			Key:     l.key,
			Tile:    int(l.lastTile),
			Dirty:   l.dirty,
			Dropped: dead && l.dirty,
		})
	}
	if dead {
		c.stats.DeadEvictions++
		if l.dirty {
			c.stats.DroppedWritebacks++
		}
		return
	}
	if l.dirty {
		c.stats.Writebacks++
		c.next.Access(mem.Request{Addr: memmap.BlockAddr(l.key), Write: true})
	}
}

func (c *refCache) TileRetired(pos uint16, tile geom.TileID) {
	if int(pos) > c.retired {
		c.retired = int(pos)
	}
	c.next.TileRetired(pos, tile)
}

func (c *refCache) EndFrame() {
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.valid && l.region.IsParameterBuffer() {
				*l = refLine{}
			}
		}
	}
	c.retired = -1
	c.next.EndFrame()
}

func (c *refCache) Occupancy() map[memmap.Region]int {
	out := make(map[memmap.Region]int)
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				out[c.sets[s][w].region]++
			}
		}
	}
	return out
}

// residentKeys returns the valid blocks in set/way order.
func (c *refCache) residentKeys() []uint64 {
	var keys []uint64
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				keys = append(keys, c.sets[s][w].key)
			}
		}
	}
	return keys
}
