// Package tiling implements the Tiling Engine of the TBR pipeline: the
// Polygon List Builder, which bins primitives into per-tile lists and — in
// TCOR — derives the OPT Numbers and last-tile information from the binning
// (paper §III-A), and the Tile Fetcher, which walks the tiles in a fixed
// traversal order and replays each tile's primitives to the Raster Pipeline.
package tiling

import (
	"fmt"
	"slices"

	"tcor/internal/geom"
)

// Order selects the tile traversal order of the Tile Fetcher.
type Order int

// Supported traversal orders. Table I uses Z-order.
const (
	// OrderScanline walks tiles row-major, left to right, top to bottom.
	OrderScanline Order = iota
	// OrderZ walks tiles along a Morton (Z-order) curve, the paper's
	// configuration.
	OrderZ
	// OrderHilbert walks tiles along a Hilbert curve: strictly adjacent
	// steps, the best tile-to-tile locality of the three orders (an
	// extension beyond the paper's Table I; see the ablation).
	OrderHilbert
)

// String returns the order name.
func (o Order) String() string {
	switch o {
	case OrderScanline:
		return "scanline"
	case OrderZ:
		return "z-order"
	case OrderHilbert:
		return "hilbert"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Traversal is a fixed tile processing order: the sequence of tiles and the
// inverse map from tile ID to traversal position. OPT Numbers are traversal
// positions, because "accessed farther in the future" is only meaningful
// along this sequence.
type Traversal struct {
	Seq []geom.TileID // position -> tile
	Pos []uint16      // tile -> position
}

// NewTraversal builds the traversal for a screen.
func NewTraversal(screen geom.Screen, order Order) (*Traversal, error) {
	if err := screen.Validate(); err != nil {
		return nil, err
	}
	tx, ty := screen.TilesX(), screen.TilesY()
	// key places tile (x, y) along the order's curve; tiles with equal
	// keys (all of them, in scanline order) follow tile ID.
	var key func(x, y int) uint64
	switch order {
	case OrderScanline:
		key = func(x, y int) uint64 { return 0 }
	case OrderZ:
		// The Morton code of the tile coordinates. For non-power-of-two
		// grids this is the standard "sorted Morton" construction: the
		// relative Z ordering is preserved and every tile appears exactly
		// once.
		key = func(x, y int) uint64 { return morton(uint32(x), uint32(y)) }
	case OrderHilbert:
		// Hilbert order on the smallest power-of-two square covering the
		// grid; ordering by it preserves the relative curve order for the
		// real (possibly non-square) grid.
		side := 1
		for side < tx || side < ty {
			side <<= 1
		}
		key = func(x, y int) uint64 { return uint64(hilbertD(side, x, y)) }
	default:
		return nil, fmt.Errorf("tiling: unknown traversal order %d", order)
	}
	// Each tile's key, computed once, sits above its ID in one integer,
	// so sorting the integers orders the tiles by key, then by ID, with no
	// comparator. A screen has under 1<<12 tiles (geom.Screen.Validate),
	// and both curves' keys stay under 1<<24.
	const idBits = 12
	n := screen.NumTiles()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = key(i%tx, i/tx)<<idBits | uint64(i)
	}
	slices.Sort(keys)
	t := &Traversal{
		Seq: make([]geom.TileID, n),
		Pos: make([]uint16, n),
	}
	for p, k := range keys {
		id := geom.TileID(k & (1<<idBits - 1))
		t.Seq[p] = id
		t.Pos[id] = uint16(p)
	}
	return t, nil
}

// NumTiles returns the number of tiles in the traversal.
func (t *Traversal) NumTiles() int { return len(t.Seq) }

// hilbertD converts (x, y) on a side-by-side grid (side a power of two) to
// its distance along the Hilbert curve (the classic rotate-and-flip
// iteration).
func hilbertD(side, x, y int) int {
	d := 0
	for s := side / 2; s > 0; s /= 2 {
		rx, ry := 0, 0
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		if ry == 0 { // rotate the quadrant
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// morton interleaves the low 16 bits of x and y into a 32-bit Z-order code.
func morton(x, y uint32) uint64 {
	return uint64(spread(x)) | uint64(spread(y))<<1
}

// spread inserts a zero bit between each of the low 16 bits of v.
func spread(v uint32) uint32 {
	v &= 0xFFFF
	v = (v | v<<8) & 0x00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}
