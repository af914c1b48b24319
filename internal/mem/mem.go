// Package mem defines the request plumbing between levels of the simulated
// memory hierarchy: a Request (block address + metadata) and the Sink
// interface implemented by every level that can service requests from the
// level above (the shared L2, the DRAM model, and counting stubs in tests).
package mem

import (
	"bytes"
	"encoding/json"
	"fmt"

	"tcor/internal/geom"
	"tcor/internal/memmap"
	"tcor/internal/stats"
)

// Request is one block-granularity access travelling down the hierarchy.
type Request struct {
	// Block is the byte address of the 64-byte block (aligned or not; the
	// receiver normalizes with memmap.Block).
	Addr uint64
	// Write distinguishes write(-back) requests from reads.
	Write bool
	// LastUse is the traversal position of the last tile that will use this
	// block. Only meaningful for Parameter Buffer data; TCOR's Polygon List
	// Builder stores it in the spare bits of PB-Attributes blocks and the
	// L2 derives it from the address for PB-Lists blocks (§III-D1).
	// memmap-region classification decides whether it is consulted.
	LastUse uint16
	// HasLastUse reports whether LastUse carries information (TCOR
	// configurations set it; the baseline never does).
	HasLastUse bool
}

// Region classifies the request's address.
func (r Request) Region() memmap.Region { return memmap.RegionOf(r.Addr) }

// Sink is a memory hierarchy level that accepts requests from above.
type Sink interface {
	// Access services one request.
	Access(r Request)
	// TileRetired tells the level that the Tile Fetcher finished the tile
	// at the given traversal position (dead-line bookkeeping, §III-D1).
	// Levels that don't care ignore it.
	TileRetired(pos uint16, tile geom.TileID)
	// EndFrame marks a frame boundary: the Parameter Buffer is recycled by
	// the driver, so PB lines are invalidated without write-back.
	EndFrame()
}

// BlockWriter is a Sink that takes a run of consecutive block writes in one
// call.
type BlockWriter interface {
	// WriteBlocks services the n block writes at base, base+BlockBytes,
	// base+2*BlockBytes, ... exactly as n Access calls with Write set
	// would, in address order.
	WriteBlocks(base uint64, n int64)
}

// WriteBlocks writes the n consecutive blocks from base into s: in one
// call when s is a BlockWriter, else as n Access calls, the way io.Copy
// hands a copy to a WriterTo.
func WriteBlocks(s Sink, base uint64, n int64) {
	if w, ok := s.(BlockWriter); ok {
		w.WriteBlocks(base, n)
		return
	}
	for i := int64(0); i < n; i++ {
		s.Access(Request{Addr: base + uint64(i)*memmap.BlockBytes, Write: true})
	}
}

// Counter is a Sink that tallies requests by region and direction. It is the
// terminal level in unit tests and doubles as the access meter in front of
// DRAM. Per-region tallies live in a fixed array indexed by region — the
// counter sits on the per-access hot path of every simulation, where the
// former map lookup (hash + pointer chase per access) was measurable.
type Counter struct {
	Reads, Writes   int64
	byRegion        [memmap.NumRegions]RegionCounts
	TileRetirements int
	Frames          int
}

// RegionCounts holds per-region read/write tallies.
type RegionCounts struct {
	Reads, Writes int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{}
}

// Access implements Sink.
func (c *Counter) Access(r Request) { c.AccessN(r, 1) }

// AccessN counts n requests like r, as n Access calls would.
func (c *Counter) AccessN(r Request, n int64) {
	rc := &c.byRegion[r.Region()]
	if r.Write {
		c.Writes += n
		rc.Writes += n
	} else {
		c.Reads += n
		rc.Reads += n
	}
}

// TileRetired implements Sink.
func (c *Counter) TileRetired(pos uint16, tile geom.TileID) { c.TileRetirements++ }

// EndFrame implements Sink.
func (c *Counter) EndFrame() { c.Frames++ }

// Total returns reads+writes.
func (c *Counter) Total() int64 { return c.Reads + c.Writes }

// Region returns the counts for one region (zero value if untouched).
func (c *Counter) Region(r memmap.Region) RegionCounts {
	if int(r) >= len(c.byRegion) {
		return RegionCounts{}
	}
	return c.byRegion[r]
}

// MarshalJSON reproduces the byte shape of the counter's former
// map-of-pointers representation: a "ByRegion" object holding only the
// touched regions, keyed by the region's decimal value in ascending order
// (single-digit keys, so numeric order and encoding/json's sorted-string
// map order coincide). Golden results, content-addressed caches and sweep
// checkpoints serialized before the array conversion keep matching.
func (c *Counter) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"Reads":%d,"Writes":%d,"ByRegion":{`, c.Reads, c.Writes)
	first := true
	for i := range c.byRegion {
		rc := &c.byRegion[i]
		if rc.Reads == 0 && rc.Writes == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `"%d":{"Reads":%d,"Writes":%d}`, i, rc.Reads, rc.Writes)
	}
	fmt.Fprintf(&b, `},"TileRetirements":%d,"Frames":%d}`, c.TileRetirements, c.Frames)
	return b.Bytes(), nil
}

// UnmarshalJSON accepts the same shape MarshalJSON emits (which is also the
// pre-conversion encoding), so persisted results round-trip.
func (c *Counter) UnmarshalJSON(data []byte) error {
	var aux struct {
		Reads, Writes   int64
		ByRegion        map[memmap.Region]RegionCounts
		TileRetirements int
		Frames          int
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	*c = Counter{Reads: aux.Reads, Writes: aux.Writes,
		TileRetirements: aux.TileRetirements, Frames: aux.Frames}
	for r, rc := range aux.ByRegion {
		if int(r) < len(c.byRegion) {
			c.byRegion[r] = rc
		}
	}
	return nil
}

// PB returns combined Parameter Buffer reads and writes (both sections).
func (c *Counter) PB() RegionCounts {
	l := c.Region(memmap.RegionPBLists)
	a := c.Region(memmap.RegionPBAttributes)
	return RegionCounts{Reads: l.Reads + a.Reads, Writes: l.Writes + a.Writes}
}

// Publish stores the counter's totals and per-region tallies into a stats
// registry under prefix (e.g. "l2.in.region.PB-Lists.reads"). Every region
// is published — touched or not — so the JSON schema is stable across runs.
func (c *Counter) Publish(r *stats.Registry, prefix string) {
	r.Counter(prefix + ".reads").Store(c.Reads)
	r.Counter(prefix + ".writes").Store(c.Writes)
	r.Counter(prefix + ".tileRetirements").Store(int64(c.TileRetirements))
	r.Counter(prefix + ".frames").Store(int64(c.Frames))
	for reg := memmap.RegionOther; reg <= memmap.RegionFragShaderInstr; reg++ {
		rc := c.Region(reg)
		r.Counter(prefix + ".region." + reg.String() + ".reads").Store(rc.Reads)
		r.Counter(prefix + ".region." + reg.String() + ".writes").Store(rc.Writes)
	}
}

// RegisterStatsInvariants registers the counter's consistency check: the
// per-region tallies partition the totals exactly.
func RegisterStatsInvariants(r *stats.Registry, prefix string) {
	r.RegisterInvariant(prefix+".regionsPartitionTotals", func(s stats.Snapshot) error {
		var reads, writes int64
		for reg := memmap.RegionOther; reg <= memmap.RegionFragShaderInstr; reg++ {
			reads += s.Get(prefix + ".region." + reg.String() + ".reads")
			writes += s.Get(prefix + ".region." + reg.String() + ".writes")
		}
		if tr, tw := s.Get(prefix+".reads"), s.Get(prefix+".writes"); reads != tr || writes != tw {
			return fmt.Errorf("region sums %d/%d != totals %d/%d", reads, writes, tr, tw)
		}
		return nil
	})
}
