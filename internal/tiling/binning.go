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
		if len(tilesBuf) == 0 {
			// Culled: overlaps nothing; never read.
			b.FirstUse[i] = pbuffer.MaxOPTNumber
			b.LastUse[i] = pbuffer.MaxOPTNumber
			continue
		}
		// Map to traversal positions and sort ascending (insertion sort;
		// overlap counts are small).
		pos := make([]uint16, 0, len(tilesBuf))
		for _, t := range tilesBuf {
			pos = append(pos, trav.Pos[t])
		}
		sortU16(pos)
		b.PrimTiles[i] = pos
		b.FirstUse[i] = pos[0]
		b.LastUse[i] = pos[len(pos)-1]

		// Append one PMD per overlapped tile, carrying the position of the
		// *next* tile to use this primitive.
		for k, tp := range pos {
			next := uint16(pbuffer.MaxOPTNumber)
			if k+1 < len(pos) {
				next = pos[k+1]
			}
			tile := trav.Seq[tp]
			if len(b.Lists[tile]) >= pbuffer.MaxPrimsPerTile {
				b.Overflowed++
				continue
			}
			b.Lists[tile] = append(b.Lists[tile], BinEntry{Prim: uint32(i), OPTNum: next})
			b.TotalOverlaps++
		}
	}
	b.TotalAttrs = attrCursor
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
