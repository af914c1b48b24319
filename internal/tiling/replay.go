package tiling

import (
	"sync"

	"tcor/internal/geom"
	"tcor/internal/pbuffer"
)

// Handler receives the Tiling Engine's Parameter Buffer access stream in
// program order. The two pipeline phases are delivered strictly in sequence
// — all Polygon List Builder writes, then the Tile Fetcher's tile-by-tile
// reads — because the Parameter Buffer is built and used up in consecutive
// pipeline stages within a frame (paper §I, §II-B).
//
// Block-granularity events carry byte-addressable block addresses so
// handlers can feed conventional caches; primitive-granularity events carry
// the decoded PMD content so handlers can feed TCOR's Attribute Cache.
type Handler interface {
	// ListWrite reports the PLB appending one PMD; addr is the byte address
	// of the PMD slot. tile is the list's tile.
	ListWrite(addr uint64, tile geom.TileID)
	// AttrWrite reports the PLB writing one whole primitive into
	// PB-Attributes. firstUse is the traversal position of the first tile
	// that will read the primitive (the OPT Number of write requests,
	// §III-C4); lastUse feeds the L2 dead-line tag. attrBlocks lists the
	// block addresses of the primitive's attributes.
	AttrWrite(prim uint32, numAttrs uint8, firstUse, lastUse uint16, attrBlocks []uint64)
	// ListRead reports the Tile Fetcher reading one PB-Lists block of the
	// given tile.
	ListRead(addr uint64, tile geom.TileID)
	// PrimRead reports the Tile Fetcher requesting one primitive's
	// attributes while processing the given tile. optNum is the traversal
	// position of the next tile that uses this primitive
	// (pbuffer.MaxOPTNumber when dead); lastUse is the primitive's overall
	// last-use position; attrBlocks as in AttrWrite.
	PrimRead(prim uint32, numAttrs uint8, optNum, lastUse uint16, attrBlocks []uint64, tile geom.TileID)
	// TileDone reports the Tile Fetcher finishing a tile; pos is its
	// traversal position. The L2 uses this signal to advance its retired-
	// tile counter (§III-D1).
	TileDone(tile geom.TileID, pos uint16)
}

// Replay drives a handler with the full Tiling Engine access stream of a
// binned frame under the given PB-Lists layout: ReplayPLB, then ReplayTile
// at every traversal position in order.
func Replay(b *Binning, lists pbuffer.ListLayout, attrs pbuffer.AttrLayout, h Handler) {
	ReplayPLB(b, lists, attrs, h)
	for pos := range b.Traversal.Seq {
		ReplayTile(b, lists, attrs, pos, h)
	}
}

// cursorPool recycles ReplayPLB's per-tile append cursors and blocksPool
// the attribute-block buffer both replay steps hand to the handler: with
// ~1500 tiles per default screen and one replay per frame per
// configuration, they are the replay path's only recurring allocations.
// Replays may run concurrently across simulations, hence pools rather than
// package-level buffers.
var (
	cursorPool = sync.Pool{New: func() any { return new([]int) }}
	blocksPool = sync.Pool{New: func() any { s := make([]uint64, 0, 8); return &s }}
)

// ReplayPLB generates the Polygon List Builder phase: for each primitive in
// program order, append its PMD to every overlapped tile's list, then write
// its attributes.
func ReplayPLB(b *Binning, lists pbuffer.ListLayout, attrs pbuffer.AttrLayout, h Handler) {
	// Per-tile append cursors, pooled and zeroed on reuse.
	cp := cursorPool.Get().(*[]int)
	defer cursorPool.Put(cp)
	if cap(*cp) < len(b.Lists) {
		*cp = make([]int, len(b.Lists))
	}
	cursor := (*cp)[:len(b.Lists)]
	for i := range cursor {
		cursor[i] = 0
	}
	bp := blocksPool.Get().(*[]uint64)
	defer blocksPool.Put(bp)
	// The per-primitive PMD appends must be replayed in primitive order;
	// Lists stores them per tile, so walk primitives via PrimTiles.
	for prim := range b.PrimTiles {
		for _, pos := range b.PrimTiles[prim] {
			tile := b.Traversal.Seq[pos]
			slot := cursor[tile]
			if slot >= pbuffer.MaxPrimsPerTile {
				continue // overflowed during binning; dropped
			}
			cursor[tile]++
			h.ListWrite(lists.PMDAddr(tile, slot), tile)
		}
		*bp = b.attrBlocks(attrs, uint32(prim), (*bp)[:0])
		h.AttrWrite(uint32(prim), b.NumAttrs[prim], b.FirstUse[prim], b.LastUse[prim], *bp)
	}
}

// ReplayTile generates the Tile Fetcher's work on the tile at traversal
// position pos: read the tile's list blocks and, per PMD, request the
// primitive's attributes, then report the tile done. Calling it for every
// position in order after ReplayPLB is Replay.
func ReplayTile(b *Binning, lists pbuffer.ListLayout, attrs pbuffer.AttrLayout, pos int, h Handler) {
	bp := blocksPool.Get().(*[]uint64)
	defer blocksPool.Put(bp)
	tile := b.Traversal.Seq[pos]
	for slot, e := range b.Lists[tile] {
		if slot%pbuffer.PMDsPerBlock == 0 {
			h.ListRead(lists.PMDAddr(tile, slot), tile)
		}
		*bp = b.attrBlocks(attrs, e.Prim, (*bp)[:0])
		h.PrimRead(e.Prim, b.NumAttrs[e.Prim], e.OPTNum, b.LastUse[e.Prim], *bp, tile)
	}
	h.TileDone(tile, uint16(pos))
}

// attrBlocks appends the block addresses of prim's attributes to dst.
func (b *Binning) attrBlocks(attrs pbuffer.AttrLayout, prim uint32, dst []uint64) []uint64 {
	for a := 0; a < int(b.NumAttrs[prim]); a++ {
		dst = append(dst, attrs.AttrAddr(b.AttrBase[prim], a))
	}
	return dst
}

// CountingHandler tallies the event stream; useful as a base for tests and
// for handlers that only care about a subset of events.
type CountingHandler struct {
	ListWrites, AttrWrites, ListReads, PrimReads, TilesDone int
	AttrBlockWrites, AttrBlockReads                         int
}

// ListWrite implements Handler.
func (c *CountingHandler) ListWrite(addr uint64, tile geom.TileID) { c.ListWrites++ }

// AttrWrite implements Handler.
func (c *CountingHandler) AttrWrite(prim uint32, n uint8, first, last uint16, blocks []uint64) {
	c.AttrWrites++
	c.AttrBlockWrites += len(blocks)
}

// ListRead implements Handler.
func (c *CountingHandler) ListRead(addr uint64, tile geom.TileID) { c.ListReads++ }

// PrimRead implements Handler.
func (c *CountingHandler) PrimRead(prim uint32, n uint8, opt, last uint16, blocks []uint64, tile geom.TileID) {
	c.PrimReads++
	c.AttrBlockReads += len(blocks)
}

// TileDone implements Handler.
func (c *CountingHandler) TileDone(tile geom.TileID, pos uint16) { c.TilesDone++ }
