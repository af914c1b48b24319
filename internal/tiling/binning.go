package tiling

import (
	"fmt"

	"tcor/internal/geom"
	"tcor/internal/pbuffer"
)

// BinEntry is one element of a tile's primitive list: the primitive index
// (into the frame's program-order slice) plus the OPT Number the Polygon
// List Builder computed for this (primitive, tile) occurrence — the
// traversal position of the *next* tile that will use this primitive, or
// pbuffer.MaxOPTNumber if this is the last use.
type BinEntry struct {
	Prim   uint32
	OPTNum uint16
}

// Binning is the output of the Polygon List Builder for one frame: the
// per-tile primitive lists plus the per-primitive future-use information
// TCOR threads through the Parameter Buffer.
type Binning struct {
	Screen    geom.Screen
	Traversal *Traversal

	// Lists holds, for each tile ID, the primitives overlapping it in
	// program order (the order the PLB appended them).
	Lists [][]BinEntry

	// PrimTiles holds, for each primitive, the traversal positions of the
	// tiles it overlaps, sorted ascending (i.e. in fetch order).
	PrimTiles [][]uint16

	// AttrBase assigns each primitive the global index of its first
	// attribute in PB-Attributes (the paper uses this address as the
	// Primitive ID).
	AttrBase []uint32

	// NumAttrs caches each primitive's attribute count.
	NumAttrs []uint8

	// FirstUse and LastUse are per-primitive traversal positions of the
	// first and last tiles that read the primitive. FirstUse is the OPT
	// Number carried by PLB write requests (§III-C4); LastUse feeds the L2
	// dead-line tagging (§III-D1).
	FirstUse []uint16
	LastUse  []uint16

	// TotalAttrs is the number of attribute blocks in PB-Attributes.
	TotalAttrs uint32
	// TotalOverlaps is the number of PMDs across all lists.
	TotalOverlaps int
	// Overflowed counts primitive-tile pairs dropped because a tile list
	// reached pbuffer.MaxPrimsPerTile.
	Overflowed int
}

// OverlapTest selects the Polygon List Builder's tile-overlap test.
type OverlapTest int

const (
	// OverlapExact uses the exact triangle-rectangle test (the paper's
	// baseline and TCOR both bin exactly; cf. Antochi et al. [2]).
	OverlapExact OverlapTest = iota
	// OverlapBBox bins by bounding box only: cheaper logic, but thin and
	// diagonal primitives appear in tile lists they never touch, inflating
	// the Parameter Buffer (the false-overlap problem of [39]).
	OverlapBBox
)

// Bin runs the Polygon List Builder's binning pass over a frame: it
// identifies the tiles each primitive overlaps (exact triangle-tile test),
// appends the primitive to each list, and computes OPT Numbers, first-use
// and last-use positions from the fixed traversal order.
func Bin(screen geom.Screen, trav *Traversal, prims []geom.Primitive) (*Binning, error) {
	return BinWithOverlap(screen, trav, prims, OverlapExact)
}

// BinWithOverlap is Bin with an explicit overlap test.
//
// It bins in two passes, with no allocation per primitive or per list:
// the first finds each primitive's traversal positions, end to end in one
// array that PrimTiles is carved from, and counts each tile's list; the
// second carves the lists from one array of exactly that many entries and
// fills them in program order.
func BinWithOverlap(screen geom.Screen, trav *Traversal, prims []geom.Primitive, ot OverlapTest) (*Binning, error) {
	if trav.NumTiles() != screen.NumTiles() {
		return nil, fmt.Errorf("tiling: traversal covers %d tiles, screen has %d",
			trav.NumTiles(), screen.NumTiles())
	}
	n := len(prims)
	b := &Binning{
		Screen:    screen,
		Traversal: trav,
		Lists:     make([][]BinEntry, screen.NumTiles()),
		PrimTiles: make([][]uint16, n),
		AttrBase:  make([]uint32, n),
		NumAttrs:  make([]uint8, n),
		FirstUse:  make([]uint16, n),
		LastUse:   make([]uint16, n),
	}

	var tilesBuf []geom.TileID
	pos := make([]uint16, 0, 2*n) // every primitive's positions, end to end
	ends := make([]int, n)        // primitive i's are pos[ends[i-1]:ends[i]]
	count := make([]int, len(b.Lists))
	var attrCursor uint32
	for i := range prims {
		p := &prims[i]
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if p.ID != uint32(i) {
			return nil, fmt.Errorf("tiling: primitive %d has ID %d; expected program order", i, p.ID)
		}
		b.AttrBase[i] = attrCursor
		b.NumAttrs[i] = p.NumAttrs
		attrCursor += uint32(p.NumAttrs)

		if ot == OverlapBBox {
			tilesBuf = screen.OverlappedTilesBBox(p, tilesBuf[:0])
		} else {
			tilesBuf = screen.OverlappedTiles(p, tilesBuf[:0])
		}
		ends[i] = len(pos) + len(tilesBuf)
		if len(tilesBuf) == 0 {
			// Culled: overlaps nothing; never read.
			b.FirstUse[i] = pbuffer.MaxOPTNumber
			b.LastUse[i] = pbuffer.MaxOPTNumber
			continue
		}
		// Map to traversal positions and sort ascending (insertion sort;
		// overlap counts are small).
		start := len(pos)
		for _, t := range tilesBuf {
			pos = append(pos, trav.Pos[t])
		}
		own := pos[start:]
		sortU16(own)
		b.FirstUse[i] = own[0]
		b.LastUse[i] = own[len(own)-1]
		// A list keeps its first pbuffer.MaxPrimsPerTile primitives.
		for _, tp := range own {
			if tile := trav.Seq[tp]; count[tile] < pbuffer.MaxPrimsPerTile {
				count[tile]++
				b.TotalOverlaps++
			} else {
				b.Overflowed++
			}
		}
	}
	b.TotalAttrs = attrCursor

	entries := make([]BinEntry, b.TotalOverlaps)
	for tile, c := range count {
		if c > 0 {
			b.Lists[tile], entries = entries[:0:c], entries[c:]
		}
	}
	start := 0
	for i, end := range ends {
		own := pos[start:end:end]
		start = end
		if len(own) == 0 {
			continue
		}
		b.PrimTiles[i] = own
		// Append one PMD per overlapped tile, carrying the position of the
		// *next* tile to use this primitive.
		for k, tp := range own {
			next := uint16(pbuffer.MaxOPTNumber)
			if k+1 < len(own) {
				next = own[k+1]
			}
			tile := trav.Seq[tp]
			if l := b.Lists[tile]; len(l) < cap(l) { // not overflowed
				b.Lists[tile] = append(l, BinEntry{Prim: uint32(i), OPTNum: next})
			}
		}
	}
	return b, nil
}

// ListLen returns the number of PMDs in tile t's list.
func (b *Binning) ListLen(t geom.TileID) int { return len(b.Lists[t]) }

// ListBlocks returns the number of PB-Lists blocks tile t's list occupies.
func (b *Binning) ListBlocks(t geom.TileID) int {
	return (len(b.Lists[t]) + pbuffer.PMDsPerBlock - 1) / pbuffer.PMDsPerBlock
}

func sortU16(s []uint16) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
