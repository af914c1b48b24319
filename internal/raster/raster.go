// Package raster models the Raster Pipeline of the TBR GPU (paper Fig. 2):
// per-tile rasterization into quads, the on-chip Z-buffer with Early-Z
// rejection, fragment shading with its texture caches and instruction
// caches, blending into the on-chip Color Buffer, and the flush of finished
// tiles to the Frame Buffer in main memory.
//
// The pipeline exists in this reproduction for two reasons: it generates the
// non-Parameter-Buffer memory traffic (textures, instructions, frame buffer)
// that shares the L2 with the Tile Cache — which is what the TCOR L2
// replacement policy arbitrates against — and it provides the per-tile cycle
// counts that dilute the Tiling Engine speedup into the modest FPS gains of
// §V-B3.
package raster

import (
	"fmt"
	"math"

	"tcor/internal/cache"
	"tcor/internal/geom"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/stats"
)

// QuadSize is the fragment-quad edge in pixels: fragment processors work on
// 2x2 pixel quads.
const QuadSize = 2

// The Raster Pipeline's fixed resources (Table I): four 64 KiB 4-way L1
// texture caches, partitioned across the fragment processors by
// screen-space interleaving, and four fragment processors, which set the
// shading throughput (instructions per cycle across the tile). Each shaded
// quad samples one texel.
const (
	NumTexCaches          = 4
	TexCacheBytes         = 64 * 1024
	TexCacheWays          = 4
	NumFragmentProcessors = 4
)

// Config describes a workload's use of the Raster Pipeline.
type Config struct {
	Screen geom.Screen
	// TextureBytes is the workload's texture working-set footprint.
	TextureBytes int64
	// ShaderInstrPerPixel is the average fragment shader length.
	ShaderInstrPerPixel int
	// LateZFraction is the share of primitives whose fragment shader
	// modifies depth: for those the Early Z-Test is disabled and the Late
	// Z-Test runs after shading (paper §II-A), so occluded quads still pay
	// full shading and texture cost.
	LateZFraction float64
	// TranslucentFraction is the share of primitives drawn with alpha
	// blending (paper §II-A's Blending unit): translucent quads never
	// occlude (they do not write depth), always shade, and perform a
	// read-modify-write on the on-chip Color Buffer.
	TranslucentFraction float64
}

// DefaultConfig returns the raster configuration for a workload's texture
// footprint and shader length.
func DefaultConfig(screen geom.Screen, textureBytes int64, instrPerPixel int) Config {
	return Config{
		Screen:              screen,
		TextureBytes:        textureBytes,
		ShaderInstrPerPixel: instrPerPixel,
	}
}

// Stats accumulates Raster Pipeline counters.
type Stats struct {
	Primitives      int64 // primitive-tile pairs rasterized
	Quads           int64 // quads covered before Early-Z
	QuadsShaded     int64 // quads surviving Early-Z
	Fragments       int64 // pixels shaded
	InstrExecuted   int64
	TexAccesses     int64
	TexMisses       int64
	LateZQuads      int64 // quads shaded despite occlusion risk (Late Z-Test)
	BlendedQuads    int64 // quads blended into the Color Buffer (read-modify-write)
	FBBlocksFlushed int64
	ShadeCycles     int64 // fragment-shading cycles across all tiles
}

// Publish stores the counters into a stats registry under prefix.
func (s Stats) Publish(r *stats.Registry, prefix string) {
	r.Counter(prefix + ".primitives").Store(s.Primitives)
	r.Counter(prefix + ".quads").Store(s.Quads)
	r.Counter(prefix + ".quadsShaded").Store(s.QuadsShaded)
	r.Counter(prefix + ".fragments").Store(s.Fragments)
	r.Counter(prefix + ".instrExecuted").Store(s.InstrExecuted)
	r.Counter(prefix + ".texAccesses").Store(s.TexAccesses)
	r.Counter(prefix + ".texMisses").Store(s.TexMisses)
	r.Counter(prefix + ".lateZQuads").Store(s.LateZQuads)
	r.Counter(prefix + ".blendedQuads").Store(s.BlendedQuads)
	r.Counter(prefix + ".fbBlocksFlushed").Store(s.FBBlocksFlushed)
	r.Counter(prefix + ".shadeCycles").Store(s.ShadeCycles)
}

// RegisterStatsInvariants registers the Raster Pipeline consistency checks:
// Early-Z can only cull quads, and texture misses are a subset of accesses.
func RegisterStatsInvariants(r *stats.Registry, prefix string) {
	r.RegisterInvariant(prefix+".quadsShaded<=quads", func(s stats.Snapshot) error {
		if qs, q := s.Get(prefix+".quadsShaded"), s.Get(prefix+".quads"); qs > q {
			return fmt.Errorf("%d shaded quads exceed %d covered quads", qs, q)
		}
		return nil
	})
	r.RegisterInvariant(prefix+".texMisses<=texAccesses", func(s stats.Snapshot) error {
		if m, a := s.Get(prefix+".texMisses"), s.Get(prefix+".texAccesses"); m > a {
			return fmt.Errorf("%d texture misses exceed %d accesses", m, a)
		}
		return nil
	})
}

// Pipeline is the Raster Pipeline model.
type Pipeline struct {
	cfg   Config
	tex   []*cache.FlatLRU // built by the first FilterTextures (newTexCaches)
	l2    mem.Sink
	fb    mem.Sink // Color Buffer flush target (main memory, bypassing L2, Fig. 5)
	stats Stats

	texW      uint64 // texture width in texels (square working set, 4 B/texel)
	tileQuads int    // quads per full tile edge
}

// New builds the pipeline. l2 receives texture-cache misses; fb receives
// Color Buffer flushes (the paper's memory organization sends those straight
// to main memory).
func New(cfg Config, l2Sink, fbSink mem.Sink) (*Pipeline, error) {
	if err := cfg.Screen.Validate(); err != nil {
		return nil, err
	}
	if l2Sink == nil || fbSink == nil {
		return nil, fmt.Errorf("raster: nil sink")
	}
	p := &Pipeline{cfg: cfg, l2: l2Sink, fb: fbSink}
	texels := cfg.TextureBytes / 4
	if texels < 64 {
		texels = 64
	}
	p.texW = uint64(math.Sqrt(float64(texels)))
	ts := cfg.Screen.TileSize
	p.tileQuads = (ts + QuadSize - 1) / QuadSize
	return p, nil
}

// newTexCaches builds the Table I texture caches. Tap coalescing
// (TilePlan.tap) is exact only for LRU caches that are only read.
func newTexCaches() []*cache.FlatLRU {
	tex := make([]*cache.FlatLRU, NumTexCaches)
	for i := range tex {
		c, err := cache.NewFlatLRU(cache.Config{
			Lines: cache.LinesFor(TexCacheBytes, memmap.BlockBytes),
			Ways:  TexCacheWays,
		})
		if err != nil {
			panic("raster: texture cache: " + err.Error()) // the geometry is constant
		}
		tex[i] = c
	}
	return tex
}

// Stats returns a copy of the counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// TexCaches returns the number of texture caches the pipeline holds: none
// until its first FilterTextures, then NumTexCaches.
func (p *Pipeline) TexCaches() int { return len(p.tex) }

// TexCacheStats returns the aggregate texture-cache statistics of the
// plans committed, counting every tap, coalesced repeats included, as an
// access and every tap that is not a miss as a hit. It derives them from
// Stats, so it holds for a pipeline that commits plans another pipeline
// filtered (FilterTextures) as for one that filters its own.
func (p *Pipeline) TexCacheStats() cache.Stats {
	s := p.stats
	return cache.Stats{
		Accesses:   s.TexAccesses,
		Hits:       s.TexAccesses - s.TexMisses,
		Misses:     s.TexMisses,
		ReadMisses: s.TexMisses,
		Fills:      s.TexMisses,
	}
}

// TileWork is one primitive scheduled into a tile, in list order.
type TileWork struct {
	Prim *geom.Primitive
}

// InstrFootprintBlocks returns the number of instruction blocks the fragment
// shader program occupies (16 bytes per instruction): the per-frame L2
// instruction fill cost. Instruction caches hit essentially always after the
// first iteration, so per-instruction traffic is accounted arithmetically.
func (p *Pipeline) InstrFootprintBlocks() int64 {
	bytes := int64(p.cfg.ShaderInstrPerPixel) * 16
	return (bytes + memmap.BlockBytes - 1) / memmap.BlockBytes
}

// EndFrame flushes per-frame state. Texture caches persist across frames
// (textures are read-only and reused); nothing to do currently, but the
// hook keeps the pipeline symmetric with the cache hierarchy.
func (p *Pipeline) EndFrame() {}

func minF(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
