package geom

// TileCode packs a tile identity — the tile ID, its traversal position and
// the primitive being processed — into one uint64 bitfield, the same trick
// hardware tile caches use for tag words (a struct key would be hashed and
// compared field-wise in a map; one word compares in a single instruction
// and indexes arrays directly):
//
//	bits 63..32  prim  (program-order primitive index, 32 bits)
//	bits 31..16  pos   (traversal position, 16 bits)
//	bits 15..0   tile  (row-major TileID, 16 bits)
//
// The zero TileCode is tile 0 / position 0 / primitive 0; there is no
// sentinel inside the code itself — callers that need "no code" use an
// out-of-band flag or a separate validity bit.
type TileCode uint64

// Field widths and shifts of the TileCode layout. TileID and traversal
// positions are uint16 throughout the repo (the screen is capped at 65536
// tiles), so 16 bits each lose nothing; primitives get the remaining 32.
const (
	tileCodeTileBits  = 16
	tileCodePosBits   = 16
	tileCodePosShift  = tileCodeTileBits
	tileCodePrimShift = tileCodeTileBits + tileCodePosBits

	tileCodeTileMask = 1<<tileCodeTileBits - 1
	tileCodePosMask  = 1<<tileCodePosBits - 1
)

// PackTileCode packs (tile, traversal position, primitive) into a TileCode.
func PackTileCode(tile TileID, pos uint16, prim uint32) TileCode {
	return TileCode(uint64(tile)) |
		TileCode(uint64(pos))<<tileCodePosShift |
		TileCode(uint64(prim))<<tileCodePrimShift
}

// Tile returns the packed TileID.
func (c TileCode) Tile() TileID { return TileID(c & tileCodeTileMask) }

// Pos returns the packed traversal position.
func (c TileCode) Pos() uint16 { return uint16(c >> tileCodePosShift & tileCodePosMask) }

// Prim returns the packed primitive index.
func (c TileCode) Prim() uint32 { return uint32(c >> tileCodePrimShift) }
