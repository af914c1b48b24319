package geom

import "fmt"

// Screen describes the render target and its partition into square tiles.
// The paper's configuration (Table I) is 1960x768 pixels with 32x32 tiles.
type Screen struct {
	Width, Height int // pixels
	TileSize      int // pixels per tile edge
}

// DefaultScreen returns the Table I configuration.
func DefaultScreen() Screen {
	return Screen{Width: 1960, Height: 768, TileSize: 32}
}

// TilesX returns the number of tile columns.
func (s Screen) TilesX() int { return (s.Width + s.TileSize - 1) / s.TileSize }

// TilesY returns the number of tile rows.
func (s Screen) TilesY() int { return (s.Height + s.TileSize - 1) / s.TileSize }

// NumTiles returns the total number of tiles on the screen.
func (s Screen) NumTiles() int { return s.TilesX() * s.TilesY() }

// Validate reports whether the screen configuration is usable.
func (s Screen) Validate() error {
	if s.Width <= 0 || s.Height <= 0 {
		return fmt.Errorf("geom: screen %dx%d must be positive", s.Width, s.Height)
	}
	if s.TileSize <= 0 {
		return fmt.Errorf("geom: tile size %d must be positive", s.TileSize)
	}
	if s.NumTiles() > int(InvalidTile) {
		// Tile IDs and traversal positions travel in 12-bit PMD/L2 fields
		// (paper Figs. 6, 8), whose all-ones value is the "never used
		// again" sentinel: a tile at position 4095 would read as dead.
		return fmt.Errorf("geom: %d tiles exceed %d, the 12-bit tile ID space less its sentinel", s.NumTiles(), InvalidTile)
	}
	return nil
}

// TileID identifies a tile by its row-major index on the screen.
type TileID uint16

// InvalidTile is the sentinel for "no tile" / "never accessed again". It is
// the all-ones value of the 12-bit OPT Number field.
const InvalidTile TileID = 0xFFF

// TileAt returns the tile containing pixel (x, y). The caller must pass
// coordinates within the screen.
func (s Screen) TileAt(x, y int) TileID {
	return TileID(y/s.TileSize*s.TilesX() + x/s.TileSize)
}

// TileCoord returns the column and row of tile t.
func (s Screen) TileCoord(t TileID) (tx, ty int) {
	return int(t) % s.TilesX(), int(t) / s.TilesX()
}

// TileRect returns the screen-space rectangle of tile t, clipped to the
// screen edge for partial boundary tiles.
func (s Screen) TileRect(t TileID) Rect {
	tx, ty := s.TileCoord(t)
	return s.tileRect(tx, ty)
}

// tileRect is TileRect by column and row.
func (s Screen) tileRect(tx, ty int) Rect {
	r := Rect{
		Min: Vec2{float32(tx * s.TileSize), float32(ty * s.TileSize)},
		Max: Vec2{float32((tx + 1) * s.TileSize), float32((ty + 1) * s.TileSize)},
	}
	if r.Max.X > float32(s.Width) {
		r.Max.X = float32(s.Width)
	}
	if r.Max.Y > float32(s.Height) {
		r.Max.Y = float32(s.Height)
	}
	return r
}

// OverlappedTilesBBox appends the IDs of all tiles the primitive's
// *bounding box* covers — the cheap conservative test simple binners use.
// Thin or diagonal primitives produce false overlaps: tiles whose lists
// carry a primitive the Rasterizer will discard (the overhead studied by
// Antochi et al. [2] and Yang et al. [39]; see the FalseOverlap
// experiment).
func (s Screen) OverlappedTilesBBox(p *Primitive, dst []TileID) []TileID {
	bb := p.BBox()
	if bb.Max.X < 0 || bb.Max.Y < 0 ||
		bb.Min.X > float32(s.Width) || bb.Min.Y > float32(s.Height) {
		return dst
	}
	x0 := clampInt(int(bb.Min.X)/s.TileSize, 0, s.TilesX()-1)
	x1 := clampInt(int(bb.Max.X)/s.TileSize, 0, s.TilesX()-1)
	y0 := clampInt(int(bb.Min.Y)/s.TileSize, 0, s.TilesY()-1)
	y1 := clampInt(int(bb.Max.Y)/s.TileSize, 0, s.TilesY()-1)
	for ty := y0; ty <= y1; ty++ {
		for tx := x0; tx <= x1; tx++ {
			dst = append(dst, TileID(ty*s.TilesX()+tx))
		}
	}
	return dst
}

// OverlappedTiles appends to dst the IDs of all tiles the primitive
// overlaps, in row-major order, and returns the extended slice. Among the
// tiles of the primitive's screen-clipped bounding box it reports exactly
// those whose rectangle TriangleRectOverlap accepts, but it does not test
// them one by one: it finds each tile row's span.
//
// TriangleRectOverlap's bbox rejects never fire inside the clipped range:
// int() truncates toward zero, so column x0's right edge lies above minX
// (or minX is negative) and column x1's left edge at or below maxX, and
// likewise for rows; a NaN bound rejects nothing, and an infinite or huge
// one leaves the clamped range inside the screen. Zero-area triangles
// therefore take the whole range. What is left are the edge tests, and
// along one tile row each is monotone in the tile column. A tile's Min.X =
// tx·T and Max.X = min((tx+1)·T, Width) never decrease with tx. The test
// n·(corner − e0) < 0 fixes the corner's y for the row and moves only its
// x: Max.X when n.X > 0, so n.X·(corner.X − e0.X) never decreases and the
// edge separates a prefix of the row; Min.X otherwise, so it separates a
// suffix (or, when n.X is zero, every column alike). Float32 subtraction,
// multiplication and addition round monotonically, and so does a fused
// multiply-add. So each row's accepted tiles form one interval, and
// rowSpan finds its ends by binary search on the very satTriangle
// expression TriangleRectOverlap evaluates, never a rewritten formula.
//
// Non-finite values need no fallback. A NaN comparison rejects nothing. A
// non-finite vertex coordinate or normal component makes its term the same
// NaN or infinity in every column of the row. An infinite normal component
// times corner.X − e0.X, and a product that overflows, give −Inf, a NaN
// that rejects nothing, then +Inf (or the reverse) along the row, still
// monotone, and adding an infinite term keeps that order. So the result
// equals the per-tile test's for every input, NaN and ±Inf coordinates
// included; FuzzOverlappedTilesMatchesReference checks this against the
// per-tile loop.
func (s Screen) OverlappedTiles(p *Primitive, dst []TileID) []TileID {
	// t's bbox is p.BBox(): the same comparisons in the same order.
	t := newSATTriangle(p.Pos[0], p.Pos[1], p.Pos[2])
	// Clip the bbox to the screen.
	if t.maxX < 0 || t.maxY < 0 ||
		t.minX > float32(s.Width) || t.minY > float32(s.Height) {
		return dst
	}
	tilesX := s.TilesX()
	x0 := clampInt(int(t.minX)/s.TileSize, 0, tilesX-1)
	x1 := clampInt(int(t.maxX)/s.TileSize, 0, tilesX-1)
	y0 := clampInt(int(t.minY)/s.TileSize, 0, s.TilesY()-1)
	y1 := clampInt(int(t.maxY)/s.TileSize, 0, s.TilesY()-1)
	for ty := y0; ty <= y1; ty++ {
		lo, hi := x0, x1+1
		if !t.degenerate {
			lo, hi = s.rowSpan(&t, s.tileRect(x0, ty), lo, hi)
		}
		for tx := lo; tx < hi; tx++ {
			dst = append(dst, TileID(ty*tilesX+tx))
		}
	}
	return dst
}

// rowSpan narrows the columns [lo, hi) of the tile row whose rectangle is
// row (at any column) to those no edge of t separates. An edge with n.X > 0
// separates a prefix of the row, any other edge a suffix. The end an edge
// may cut is probed first, so an edge that cuts nothing costs one
// evaluation, and a binary search finds the cut otherwise.
func (s Screen) rowSpan(t *satTriangle, row Rect, lo, hi int) (int, int) {
	for i := 0; i < len(t.normal) && lo < hi; i++ {
		if t.normal[i].X > 0 {
			if t.separates(i, s.colRect(row, lo)) {
				lo = s.firstCol(t, i, row, lo+1, hi, false)
			}
		} else if t.separates(i, s.colRect(row, hi-1)) {
			hi = s.firstCol(t, i, row, lo, hi-1, true)
		}
	}
	return lo, hi
}

// firstCol returns the first column in [a, b) of the row at which
// t.separates(i) equals sep, or b if there is none; it must equal sep on a
// suffix of [a, b).
func (s Screen) firstCol(t *satTriangle, i int, row Rect, a, b int, sep bool) int {
	for a < b {
		if m := int(uint(a+b) >> 1); t.separates(i, s.colRect(row, m)) == sep {
			b = m
		} else {
			a = m + 1
		}
	}
	return a
}

// colRect returns the rectangle of column tx in the tile row of row, with
// tileRect's expressions.
func (s Screen) colRect(row Rect, tx int) Rect {
	row.Min.X = float32(tx * s.TileSize)
	row.Max.X = float32((tx + 1) * s.TileSize)
	if row.Max.X > float32(s.Width) {
		row.Max.X = float32(s.Width)
	}
	return row
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
