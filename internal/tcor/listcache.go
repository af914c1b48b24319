package tcor

import (
	"fmt"

	"tcor/internal/cache"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/stats"
)

// ListCacheConfig sizes the Primitive List Cache (§III-C1): a conventional
// set-associative LRU cache in front of PB-Lists.
type ListCacheConfig struct {
	SizeBytes int
	Ways      int
	// TagLastUse controls whether requests to the L2 carry the owning
	// tile's traversal position for the dead-line logic (on in TCOR, off in
	// ablations without L2 enhancements).
	TagLastUse bool
}

// DefaultListCacheConfig returns the paper's 16 KiB, 4-way configuration.
func DefaultListCacheConfig() ListCacheConfig {
	return ListCacheConfig{SizeBytes: 16 * 1024, Ways: 4, TagLastUse: true}
}

// ListStats counts Primitive List Cache events.
type ListStats struct {
	Reads, Writes, Hits, Misses int64
	Writebacks                  int64
	L2Reads, L2Writes           int64
}

// Publish stores the counters into a stats registry under prefix.
func (s ListStats) Publish(r *stats.Registry, prefix string) {
	r.Counter(prefix + ".reads").Store(s.Reads)
	r.Counter(prefix + ".writes").Store(s.Writes)
	r.Counter(prefix + ".hits").Store(s.Hits)
	r.Counter(prefix + ".misses").Store(s.Misses)
	r.Counter(prefix + ".writebacks").Store(s.Writebacks)
	r.Counter(prefix + ".l2Reads").Store(s.L2Reads)
	r.Counter(prefix + ".l2Writes").Store(s.L2Writes)
}

// RegisterListStatsInvariants registers the Primitive List Cache
// consistency checks: every access is a hit or a miss, and L2 traffic is
// bounded by misses (fetches) plus write-backs.
func RegisterListStatsInvariants(r *stats.Registry, prefix string) {
	r.RegisterInvariant(prefix+".hits+misses==accesses", func(s stats.Snapshot) error {
		if h, m, a := s.Get(prefix+".hits"), s.Get(prefix+".misses"), s.Get(prefix+".reads")+s.Get(prefix+".writes"); h+m != a {
			return fmt.Errorf("%d hits + %d misses != %d accesses", h, m, a)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".l2Reads<=misses", func(s stats.Snapshot) error {
		if lr, m := s.Get(prefix+".l2Reads"), s.Get(prefix+".misses"); lr > m {
			return fmt.Errorf("%d L2 fetches exceed %d misses", lr, m)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".l2Writes==writebacks", func(s stats.Snapshot) error {
		if lw, wb := s.Get(prefix+".l2Writes"), s.Get(prefix+".writebacks"); lw != wb {
			return fmt.Errorf("%d L2 writes != %d write-backs", lw, wb)
		}
		return nil
	})
}

// PrimitiveListCache caches PB-Lists blocks with LRU replacement. Writes
// allocate (the PLB appends PMDs one at a time, and 16 PMDs share a block,
// so write-allocate captures the spatial reuse of list building).
type PrimitiveListCache struct {
	cfg   ListCacheConfig
	c     *cache.WriteBackLRU
	next  mem.Sink
	stats ListStats
	// lastUse is a per-slot column: the traversal position of the tile
	// that last accessed the slot's block. Every hit and fill writes it;
	// a dirty victim's write-back reads it before the fill overwrites it.
	lastUse []uint16
}

// NewPrimitiveListCache builds the cache; next receives L2 traffic.
func NewPrimitiveListCache(cfg ListCacheConfig, next mem.Sink) (*PrimitiveListCache, error) {
	if next == nil {
		return nil, fmt.Errorf("tcor: list cache needs a next-level sink")
	}
	lines := cache.LinesFor(cfg.SizeBytes, memmap.BlockBytes)
	c, err := cache.NewWriteBackLRU(cache.Config{
		Lines:         lines,
		Ways:          cfg.Ways,
		WriteAllocate: true,
	})
	if err != nil {
		return nil, fmt.Errorf("tcor: list cache: %w", err)
	}
	return &PrimitiveListCache{
		cfg:     cfg,
		c:       c,
		next:    next,
		lastUse: make([]uint16, lines),
	}, nil
}

// Stats returns a copy of the statistics.
func (p *PrimitiveListCache) Stats() ListStats { return p.stats }

// Access services one PB-Lists access at byte address addr for the given
// tile at traversal position tilePos.
func (p *PrimitiveListCache) Access(addr uint64, write bool, tilePos uint16) {
	key := memmap.Block(addr)
	if write {
		p.stats.Writes++
	} else {
		p.stats.Reads++
	}
	slot, res := p.c.Access(key, write)
	if res.Hit {
		p.stats.Hits++
		p.lastUse[slot] = tilePos
		return
	}
	p.stats.Misses++
	if res.Evicted && res.VictimDirty {
		p.stats.Writebacks++
		p.emit(uint64(res.Victim), true, p.lastUse[slot])
	}
	p.lastUse[slot] = tilePos
	// Read misses fetch the block. Write misses fetch only when the PMD
	// lands mid-block: appending to a block that was evicted part-way
	// through filling must merge with the PMDs already written, whereas the
	// first PMD of a block (64-byte-aligned address) starts a fresh block
	// and allocates without a fetch.
	if !write || addr%memmap.BlockBytes != 0 {
		p.emit(key, false, tilePos)
	}
}

// emit sends one block request to the L2, tagged with the traversal
// position of the block's last-use tile when TagLastUse is on.
func (p *PrimitiveListCache) emit(block uint64, write bool, lastUse uint16) {
	r := mem.Request{Addr: memmap.BlockAddr(block), Write: write}
	if p.cfg.TagLastUse {
		r.LastUse = lastUse
		r.HasLastUse = true
	}
	if write {
		p.stats.L2Writes++
	} else {
		p.stats.L2Reads++
	}
	p.next.Access(r)
}

// EndFrame invalidates the cache without write-back: the PB is recycled,
// so dirty PB-Lists data is dead at frame end and is dropped.
func (p *PrimitiveListCache) EndFrame() { p.c.FlushAll() }
