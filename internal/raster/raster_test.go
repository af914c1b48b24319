package raster

import (
	"math/rand"
	"testing"

	"tcor/internal/cache"
	"tcor/internal/geom"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/stats"
)

func newPipeline(t *testing.T) (*Pipeline, *mem.Counter, *mem.Counter) {
	t.Helper()
	screen := geom.Screen{Width: 96, Height: 96, TileSize: 32}
	l2 := mem.NewCounter()
	fb := mem.NewCounter()
	p, err := New(DefaultConfig(screen, 1<<20, 8), l2, fb)
	if err != nil {
		t.Fatal(err)
	}
	return p, l2, fb
}

func tri(id uint32, a, b, c geom.Vec2, z float32) *geom.Primitive {
	return &geom.Primitive{
		ID:       id,
		Pos:      [3]geom.Vec2{a, b, c},
		Depth:    [3]float32{z, z, z},
		NumAttrs: 1,
	}
}

// rasterTile rasterizes one tile the way the simulator does, PlanTile then
// CommitPlan, and returns the tile's raster cycles.
func rasterTile(p *Pipeline, tile geom.TileID, frame int, work []TileWork) int64 {
	var plan TilePlan
	p.PlanTile(tile, frame, work, p.NewScratch(), &plan)
	return p.CommitPlan(&plan)
}

func TestNewValidates(t *testing.T) {
	screen := geom.Screen{Width: 96, Height: 96, TileSize: 32}
	if _, err := New(DefaultConfig(geom.Screen{}, 0, 1), mem.NewCounter(), mem.NewCounter()); err == nil {
		t.Error("invalid screen must fail")
	}
	if _, err := New(DefaultConfig(screen, 0, 1), nil, mem.NewCounter()); err == nil {
		t.Error("nil l2 must fail")
	}
}

func TestRasterTileCoverageAndFlush(t *testing.T) {
	p, _, fb := newPipeline(t)
	// A triangle covering the whole of tile 0 (tile rect [0,32)x[0,32)).
	full := tri(0, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.5)
	cycles := rasterTile(p, 0, 0, []TileWork{{Prim: full}})
	st := p.Stats()
	// 16x16 quads fully covered.
	if st.QuadsShaded != 256 {
		t.Errorf("quads shaded = %d, want 256", st.QuadsShaded)
	}
	if st.Fragments != 1024 {
		t.Errorf("fragments = %d, want 1024", st.Fragments)
	}
	if cycles != 1024*8/4 {
		t.Errorf("cycles = %d", cycles)
	}
	// Color buffer flush: 32*32*4/64 = 64 blocks.
	if st.FBBlocksFlushed != 64 {
		t.Errorf("FB blocks = %d, want 64", st.FBBlocksFlushed)
	}
	if fb.Region(memmap.RegionFrameBuffer).Writes != 64 {
		t.Errorf("FB writes = %+v", fb.Region(memmap.RegionFrameBuffer))
	}
}

func TestEarlyZKillsOccludedQuads(t *testing.T) {
	p, _, _ := newPipeline(t)
	near := tri(0, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.1)
	far := tri(1, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.9)
	rasterTile(p, 0, 0, []TileWork{{Prim: near}, {Prim: far}})
	st := p.Stats()
	if st.QuadsShaded != 256 {
		t.Errorf("occluded primitive shaded: %d quads", st.QuadsShaded)
	}
	if st.Quads != 512 {
		t.Errorf("coverage should count both prims: %d", st.Quads)
	}
}

func TestPainterOrderOverdraw(t *testing.T) {
	p, _, _ := newPipeline(t)
	// Far first, then near: both shade (no reverse-order rejection).
	far := tri(0, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.9)
	near := tri(1, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.1)
	rasterTile(p, 0, 0, []TileWork{{Prim: far}, {Prim: near}})
	if p.Stats().QuadsShaded != 512 {
		t.Errorf("quads shaded = %d, want 512 (overdraw)", p.Stats().QuadsShaded)
	}
}

func TestTextureLocality(t *testing.T) {
	p, l2, _ := newPipeline(t)
	full := tri(0, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.5)
	rasterTile(p, 0, 0, []TileWork{{Prim: full}})
	st := p.Stats()
	if st.TexAccesses != 256 {
		t.Fatalf("tex accesses = %d", st.TexAccesses)
	}
	// Adjacent quads share texel blocks: misses must be far below accesses.
	if st.TexMisses*2 > st.TexAccesses {
		t.Errorf("texture locality broken: %d misses / %d accesses", st.TexMisses, st.TexAccesses)
	}
	if l2.Region(memmap.RegionTextures).Reads != st.TexMisses {
		t.Error("every texture miss must reach the L2")
	}
	// Re-rendering the same tile in the same frame hits the texture cache.
	before := p.Stats().TexMisses
	rasterTile(p, 0, 0, []TileWork{{Prim: full}})
	if p.Stats().TexMisses != before {
		t.Error("warm texture cache should not miss")
	}
}

func TestPartialTileClipsFlush(t *testing.T) {
	// Screen 40x40 with 32-tiles: tile 3 is 8x8 pixels.
	screen := geom.Screen{Width: 40, Height: 40, TileSize: 32}
	p, err := New(DefaultConfig(screen, 1<<16, 4), mem.NewCounter(), mem.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	rasterTile(p, 3, 0, nil)
	// 8*8*4 = 256 bytes = 4 blocks.
	if p.Stats().FBBlocksFlushed != 4 {
		t.Errorf("partial tile flushed %d blocks, want 4", p.Stats().FBBlocksFlushed)
	}
}

func TestZeroTextureWorkload(t *testing.T) {
	screen := geom.Screen{Width: 64, Height: 64, TileSize: 32}
	p, err := New(DefaultConfig(screen, 0, 4), mem.NewCounter(), mem.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	full := tri(0, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.5)
	rasterTile(p, 0, 0, []TileWork{{Prim: full}})
	if p.Stats().TexAccesses != 0 {
		t.Error("no texture accesses expected for zero footprint")
	}
}

func TestInstrFootprintBlocks(t *testing.T) {
	p, _, _ := newPipeline(t)
	// 8 instr * 16 B = 128 B = 2 blocks.
	if got := p.InstrFootprintBlocks(); got != 2 {
		t.Errorf("instr blocks = %d", got)
	}
}

func TestLateZShadesOccludedQuads(t *testing.T) {
	screen := geom.Screen{Width: 64, Height: 64, TileSize: 32}
	cfg := DefaultConfig(screen, 1<<16, 4)
	cfg.LateZFraction = 1 // every primitive writes depth
	p, err := New(cfg, mem.NewCounter(), mem.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	near := tri(0, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.1)
	far := tri(1, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.9)
	rasterTile(p, 0, 0, []TileWork{{Prim: near}, {Prim: far}})
	st := p.Stats()
	// With Late-Z both layers shade (256 quads each) even though the far
	// one is fully occluded; with Early-Z (see TestEarlyZKillsOccludedQuads)
	// only 256 shade.
	if st.QuadsShaded != 512 {
		t.Errorf("late-z shaded %d quads, want 512", st.QuadsShaded)
	}
	if st.LateZQuads != 512 {
		t.Errorf("late-z counter = %d", st.LateZQuads)
	}
}

func TestLateZFractionZeroIsEarlyZ(t *testing.T) {
	screen := geom.Screen{Width: 64, Height: 64, TileSize: 32}
	p, err := New(DefaultConfig(screen, 1<<16, 4), mem.NewCounter(), mem.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	near := tri(0, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.1)
	far := tri(1, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.9)
	rasterTile(p, 0, 0, []TileWork{{Prim: near}, {Prim: far}})
	if p.Stats().LateZQuads != 0 {
		t.Error("late-z path taken with fraction 0")
	}
}

func TestTranslucentBlending(t *testing.T) {
	screen := geom.Screen{Width: 64, Height: 64, TileSize: 32}
	cfg := DefaultConfig(screen, 1<<16, 4)
	cfg.TranslucentFraction = 1 // everything blends
	p, err := New(cfg, mem.NewCounter(), mem.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	// Two full layers: both blend (translucents never occlude each other).
	a := tri(0, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.3)
	b := tri(1, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.6)
	rasterTile(p, 0, 0, []TileWork{{Prim: a}, {Prim: b}})
	st := p.Stats()
	if st.BlendedQuads != 512 || st.QuadsShaded != 512 {
		t.Errorf("blended/shaded = %d/%d, want 512/512", st.BlendedQuads, st.QuadsShaded)
	}
	// Translucents still z-test against opaque geometry: an opaque layer in
	// front kills later translucent quads... but with fraction 1 there is
	// no opaque geometry in this test; verified indirectly by the depth
	// buffer remaining untouched (a third farther layer still shades).
	c := tri(2, geom.Vec2{X: -10, Y: -10}, geom.Vec2{X: 100, Y: -10}, geom.Vec2{X: -10, Y: 100}, 0.9)
	rasterTile(p, 0, 0, []TileWork{{Prim: c}})
	if p.Stats().BlendedQuads != 768 {
		t.Errorf("translucent layer occluded by translucent: %d", p.Stats().BlendedQuads)
	}
}

// TestTexCacheStatsSatisfyCacheInvariants publishes the aggregate
// texture-cache statistics and demands every identity a published cache
// must satisfy: each miss is a read or write miss and fills or bypasses.
func TestTexCacheStatsSatisfyCacheInvariants(t *testing.T) {
	cfg := testConfig(32)
	p, err := New(cfg, mem.NewCounter(), mem.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	installSmallTexCaches(t, p)
	prims := randomPrims(rand.New(rand.NewSource(7)), 200, float32(cfg.Screen.Width), float32(cfg.Screen.Height))
	for tile := geom.TileID(0); int(tile) < cfg.Screen.NumTiles(); tile++ {
		rasterTile(p, tile, 0, tileWork(prims, cfg.Screen, tile))
	}
	agg, st := p.TexCacheStats(), p.Stats()
	if agg.Accesses != st.TexAccesses || agg.Misses != st.TexMisses || agg.Misses == 0 {
		t.Fatalf("aggregate %+v disagrees with %d taps, %d misses", agg, st.TexAccesses, st.TexMisses)
	}
	reg := stats.NewRegistry()
	agg.Publish(reg, "l1.tex")
	cache.RegisterStatsInvariants(reg, "l1.tex")
	if err := reg.Check(); err != nil {
		t.Errorf("invariants violated: %v", err)
	}
}
