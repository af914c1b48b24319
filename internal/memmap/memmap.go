// Package memmap defines the simulated physical address space of the GPU
// (paper Fig. 5): where input geometry, the two Parameter Buffer sections,
// textures, shader instructions and the frame buffer live, and how to
// classify an address back into a region. The L2 enhancements need exactly
// this classification (a 2-bit "belongs to PB-Lists / PB-Attributes /
// neither" tag per line, §III-D1).
package memmap

// BlockBytes is the memory block / cache line size used throughout the
// hierarchy (Table I: 64-byte lines).
const BlockBytes = 64

// Region identifies one of the memory regions of Fig. 5.
type Region uint8

// The memory regions of a graphics application.
const (
	RegionOther Region = iota
	RegionInputGeometry
	RegionPBLists
	RegionPBAttributes
	RegionTextures
	RegionFrameBuffer
	RegionVertexShaderInstr
	RegionFragShaderInstr

	// NumRegions sizes dense per-region arrays (RegionOf clamps unknown
	// addresses into RegionOther, so every Region value is below this).
	NumRegions = int(RegionFragShaderInstr) + 1
)

// Region base addresses. Each region is 256 MiB, far larger than any
// simulated footprint, so regions never collide.
const (
	regionShift = 28 // 256 MiB per region
	// RegionBytes is a region's size; regions start at its multiples.
	RegionBytes = uint64(1) << regionShift

	InputGeometryBase     = uint64(RegionInputGeometry) << regionShift
	PBListsBase           = uint64(RegionPBLists) << regionShift
	PBAttributesBase      = uint64(RegionPBAttributes) << regionShift
	TexturesBase          = uint64(RegionTextures) << regionShift
	FrameBufferBase       = uint64(RegionFrameBuffer) << regionShift
	VertexShaderInstrBase = uint64(RegionVertexShaderInstr) << regionShift
	FragShaderInstrBase   = uint64(RegionFragShaderInstr) << regionShift
)

// RegionOf classifies a byte address.
func RegionOf(addr uint64) Region {
	r := Region(addr >> regionShift)
	if r > RegionFragShaderInstr {
		return RegionOther
	}
	return r
}

// Block returns the block (line) index of a byte address; block indices are
// the keys used by the cache models.
func Block(addr uint64) uint64 { return addr / BlockBytes }

// BlockAddr returns the byte address of a block index.
func BlockAddr(block uint64) uint64 { return block * BlockBytes }

// String returns the region name.
func (r Region) String() string {
	switch r {
	case RegionInputGeometry:
		return "InputGeometry"
	case RegionPBLists:
		return "PB-Lists"
	case RegionPBAttributes:
		return "PB-Attributes"
	case RegionTextures:
		return "Textures"
	case RegionFrameBuffer:
		return "FrameBuffer"
	case RegionVertexShaderInstr:
		return "VertexShaderInstr"
	case RegionFragShaderInstr:
		return "FragShaderInstr"
	default:
		return "Other"
	}
}

// IsParameterBuffer reports whether the region is one of the two Parameter
// Buffer sections.
func (r Region) IsParameterBuffer() bool {
	return r == RegionPBLists || r == RegionPBAttributes
}
