package raster

import (
	"math"

	"tcor/internal/geom"
	"tcor/internal/mem"
	"tcor/internal/memmap"
)

// TilePlan is the deterministic record of one tile's raster work: the quad
// tallies from coverage and depth testing plus the tile's entire memory
// access stream, laid out struct-of-arrays so planning appends to flat
// slices instead of allocating per-access records. A plan is a pure
// function of (tile, frame, primitive list, config) — it never reads cache
// or DRAM state — so planning and CommitPlan, which replays the stream into
// the shared hierarchy, can be timed and tested apart.
type TilePlan struct {
	Code geom.TileCode // tile identity (tile ID + traversal position)

	Prims        int64 // primitive-tile pairs rasterized
	Quads        int64 // quads covered before Early-Z
	QuadsShaded  int64 // quads surviving Early-Z
	LateZQuads   int64
	BlendedQuads int64

	// Texture tap stream in issue order, run-length coded (struct of
	// arrays): the block address of each run, the texture cache it routes
	// to and the number of consecutive taps it stands for. Consecutive taps
	// to the same block and cache share one entry.
	TapAddrs []uint64
	TapCache []uint8
	TapRuns  []uint32

	// Color Buffer flush: FBBlocks block writes starting at FBBase.
	FBBase   uint64
	FBBlocks int64
}

// Reset clears the plan for reuse, keeping the tap capacity.
func (p *TilePlan) Reset() {
	p.Code = 0
	p.Prims, p.Quads, p.QuadsShaded, p.LateZQuads, p.BlendedQuads = 0, 0, 0, 0, 0
	p.TapAddrs = p.TapAddrs[:0]
	p.TapCache = p.TapCache[:0]
	p.TapRuns = p.TapRuns[:0]
	p.FBBase, p.FBBlocks = 0, 0
}

// PlanScratch is the worker-private state PlanTile needs: the on-chip
// Z-buffer for one tile. Each caller of PlanTile owns one.
type PlanScratch struct {
	depth []float32
}

// NewScratch allocates a planning scratch sized for this pipeline's tiles.
func (p *Pipeline) NewScratch() *PlanScratch {
	return &PlanScratch{depth: make([]float32, p.tileQuads*p.tileQuads)}
}

// PlanTile computes the tile's raster plan into plan (which it resets
// first). It reads only immutable pipeline configuration, so distinct
// (scratch, plan) pairs may plan distinct tiles concurrently. The plan,
// committed in order, reproduces RasterTile's effects exactly.
func (p *Pipeline) PlanTile(tile geom.TileID, frame int, work []TileWork, sc *PlanScratch, plan *TilePlan) {
	plan.Reset()
	plan.Code = geom.PackTileCode(tile, 0, 0)
	rect := p.cfg.Screen.TileRect(tile)
	for i := range sc.depth {
		sc.depth[i] = math.MaxFloat32
	}
	route := p.tileRoute(tile)
	for _, w := range work {
		plan.Prims++
		plan.QuadsShaded += p.planPrim(w.Prim, rect, route, frame, sc, plan)
	}

	pixels := int64(rect.Width()) * int64(rect.Height())
	plan.FBBlocks = (pixels*4 + memmap.BlockBytes - 1) / memmap.BlockBytes
	plan.FBBase = memmap.FrameBufferBase + uint64(tile)*uint64(p.cfg.Screen.TileSize*p.cfg.Screen.TileSize*4)
}

// texRoute is a tile's texture-cache routing. The caches interleave across
// screen tiles: a quad's taps go to cache (column + row) % NumTexCaches of
// the tile holding the quad's center. With an even TileSize that is the
// tile itself for every quad. With an odd one the last quad column and row
// are centered one pixel past the tile edge, in the next tile column or
// row, so they route one cache further on (two for the corner quad).
type texRoute struct {
	cache    [3]uint8 // by the number of straddled edges, 0-2
	straddle int      // first quad index centered past the tile edge
}

func (p *Pipeline) tileRoute(tile geom.TileID) texRoute {
	tx, ty := p.cfg.Screen.TileCoord(tile)
	r := texRoute{straddle: p.cfg.Screen.TileSize / 2}
	for i := range r.cache {
		r.cache[i] = uint8((tx + ty + i) % p.cfg.NumTexCaches)
	}
	return r
}

// CommitPlan replays the plan's access streams into the shared texture
// caches, L2 and Frame Buffer and folds its tallies into the pipeline
// statistics, returning the tile's raster cycles. Commit order across tiles
// must match the serial traversal order; the replay itself is identical to
// what RasterTile would have issued inline.
func (p *Pipeline) CommitPlan(plan *TilePlan) int64 {
	p.stats.Primitives += plan.Prims
	p.stats.Quads += plan.Quads
	p.stats.LateZQuads += plan.LateZQuads
	p.stats.BlendedQuads += plan.BlendedQuads

	// One cache access per run; the run's repeats are hits (see
	// TilePlan.tap) counted in texRepeats.
	for i, addr := range plan.TapAddrs {
		n := int64(plan.TapRuns[i])
		p.stats.TexAccesses += n
		p.texRepeats += n - 1
		if !p.tex[plan.TapCache[i]].Read(memmap.Block(addr)) {
			p.stats.TexMisses++
			p.l2.Access(mem.Request{Addr: addr})
		}
	}

	fragments := plan.QuadsShaded * QuadSize * QuadSize
	instr := fragments * int64(p.cfg.ShaderInstrPerPixel)
	p.stats.QuadsShaded += plan.QuadsShaded
	p.stats.Fragments += fragments
	p.stats.InstrExecuted += instr

	for b := int64(0); b < plan.FBBlocks; b++ {
		p.fb.Access(mem.Request{Addr: plan.FBBase + uint64(b)*memmap.BlockBytes, Write: true})
	}
	p.stats.FBBlocksFlushed += plan.FBBlocks

	cycles := instr / int64(p.cfg.NumFragmentProcessors)
	if cycles == 0 && plan.Prims > 0 {
		cycles = 1
	}
	p.stats.ShadeCycles += cycles
	return cycles
}

// planPrim is the pure half of rasterPrim: it walks the quads of the
// primitive's bbox inside the tile, testing coverage and Early-Z against
// the scratch Z-buffer, and records the texture taps of surviving quads
// into the plan instead of issuing them.
//
// The coverage test is geom.PointInTriangle at each quad center with its
// per-primitive and per-row terms hoisted: the bbox, the edge deltas and
// each row's y offsets. Every float32 expression keeps its operands and
// order, and the explicit float32 conversions forbid fused multiply-adds
// exactly as in PointInTriangle, so coverage is bit-identical to calling it.
func (p *Pipeline) planPrim(pr *geom.Primitive, tile geom.Rect, route texRoute, frame int, sc *PlanScratch, plan *TilePlan) int64 {
	bb := pr.BBox()
	x0 := maxF(bb.Min.X, tile.Min.X)
	y0 := maxF(bb.Min.Y, tile.Min.Y)
	x1 := minF(bb.Max.X, tile.Max.X)
	y1 := minF(bb.Max.Y, tile.Max.Y)
	if x0 >= x1 || y0 >= y1 {
		return 0
	}
	// Snap to the tile's quad grid.
	qx0 := int(x0-tile.Min.X) / QuadSize
	qy0 := int(y0-tile.Min.Y) / QuadSize
	qx1 := int(x1-tile.Min.X-0.0001) / QuadSize
	qy1 := int(y1-tile.Min.Y-0.0001) / QuadSize
	if qx1 >= p.tileQuads {
		qx1 = p.tileQuads - 1
	}
	if qy1 >= p.tileQuads {
		qy1 = p.tileQuads - 1
	}
	z := (pr.Depth[0] + pr.Depth[1] + pr.Depth[2]) / 3
	// Depth-writing materials disable the Early Z-Test (§II-A); the choice
	// is a deterministic per-primitive hash so a given fraction of the
	// geometry takes the late path.
	lateZ := p.cfg.LateZFraction > 0 &&
		float64(pr.ID*2654435761%1000) < p.cfg.LateZFraction*1000
	// Translucent materials neither occlude nor get occluded by later
	// translucent layers; they blend over whatever is resident.
	translucent := p.cfg.TranslucentFraction > 0 &&
		float64(pr.ID*40503%1000) < p.cfg.TranslucentFraction*1000
	a, b, c := pr.Pos[0], pr.Pos[1], pr.Pos[2]
	// Edge deltas of geom.PointInTriangle's sign(p, a, b), sign(p, b, c)
	// and sign(p, c, a).
	abY, abX := a.Y-b.Y, a.X-b.X
	bcY, bcX := b.Y-c.Y, b.X-c.X
	caY, caX := c.Y-a.Y, c.X-a.X
	taps := p.tapsFor(pr, frame)
	var survived int64
	for qy := qy0; qy <= qy1; qy++ {
		cy := tile.Min.Y + float32(qy*QuadSize) + QuadSize/2
		if cy < bb.Min.Y || cy > bb.Max.Y {
			continue
		}
		// The y terms of the three edge functions.
		yAB := float32(abX * (cy - b.Y))
		yBC := float32(bcX * (cy - c.Y))
		yCA := float32(caX * (cy - a.Y))
		rowEdges := 0
		if qy >= route.straddle {
			rowEdges = 1
		}
		v := taps.v(cy)
		u := taps.u(tile.Min.X + float32(qx0*QuadSize) + QuadSize/2)
		for qx := qx0; qx <= qx1; qx, u = qx+1, taps.next(u) {
			cx := tile.Min.X + float32(qx*QuadSize) + QuadSize/2
			if cx < bb.Min.X || cx > bb.Max.X {
				continue
			}
			d1 := float32((cx-b.X)*abY) - yAB
			d2 := float32((cx-c.X)*bcY) - yBC
			d3 := float32((cx-a.X)*caY) - yCA
			hasNeg := d1 < 0 || d2 < 0 || d3 < 0
			hasPos := d1 > 0 || d2 > 0 || d3 > 0
			if hasNeg && hasPos {
				// Each edge function is monotone in cx along the row, in
				// the direction of its dY: float32 subtraction and
				// multiplication round monotonically. A negative edge
				// with dY <= 0 stays negative to the right and a positive
				// edge with dY >= 0 stays positive, so once a rejected
				// quad has both, the rest of the row is rejected too.
				if (d1 < 0 && abY <= 0 || d2 < 0 && bcY <= 0 || d3 < 0 && caY <= 0) &&
					(d1 > 0 && abY >= 0 || d2 > 0 && bcY >= 0 || d3 > 0 && caY >= 0) {
					break
				}
				continue
			}
			plan.Quads++
			di := qy*p.tileQuads + qx
			if translucent {
				// Blend: depth-tested against opaque geometry but never
				// written; the Color Buffer is read and re-written.
				if z >= sc.depth[di] {
					continue
				}
				plan.BlendedQuads++
			} else if !lateZ {
				// Early-Z: opaque geometry in submission order.
				if z >= sc.depth[di] {
					continue
				}
				sc.depth[di] = z
			} else {
				// Late-Z: shade unconditionally, then depth-test the result.
				plan.LateZQuads++
				if z < sc.depth[di] {
					sc.depth[di] = z
				}
			}
			survived++
			edges := rowEdges
			if qx >= route.straddle {
				edges++
			}
			taps.plan(u, v, route.cache[edges], plan)
		}
	}
	return survived
}

// quadTaps holds one primitive's texel address terms: the same arithmetic
// as the inline textureFetch, minus the cache simulation (which CommitPlan
// performs during the ordered replay).
type quadTaps struct {
	enabled  bool   // the workload has textures
	bilinear bool   // four taps per quad instead of one
	off      uint64 // per-primitive offset spreading objects across the atlas
	vOff     uint64 // the offset's row share plus the per-frame scroll
	texW     uint64 // texels per row at the selected mip level
	mipBase  uint64 // byte offset of the selected mip level
}

func (p *Pipeline) tapsFor(pr *geom.Primitive, frame int) quadTaps {
	t := quadTaps{
		enabled:  p.cfg.TextureBytes > 0,
		bilinear: p.cfg.Bilinear,
		off:      uint64(pr.ID) * 2654435761,
		texW:     p.texW,
	}
	t.vOff = t.off>>16 + uint64(frame)*7
	if t.enabled && t.bilinear {
		// LOD from screen area: primitives smaller than ~1 tile use mip 1+,
		// tiny ones coarser still. Mip i halves the resolution and lives
		// after the previous levels.
		area := pr.Area()
		lod := 0
		for threshold := float32(1024); area < threshold && lod < 4; threshold /= 4 {
			lod++
		}
		for i := 0; i < lod; i++ {
			t.mipBase += t.texW * t.texW * 4
			t.texW /= 2
			if t.texW < 8 {
				t.texW = 8
			}
		}
	}
	return t
}

// v returns the texel row sampled by quads centered at y.
func (t *quadTaps) v(y float32) uint64 {
	return (uint64(y) + t.vOff) % t.texW
}

// u returns the texel column sampled by quads centered at x.
func (t *quadTaps) u(x float32) uint64 {
	return (uint64(x) + t.off) % t.texW
}

// next returns the texel column of the next quad in the row, given this
// quad's column u < texW. Quad centers are integers QuadSize apart, so
// uint64(x) steps exactly by QuadSize, and texW >= 8 > QuadSize needs at
// most one wrap.
func (t *quadTaps) next(u uint64) uint64 {
	u += QuadSize
	if u >= t.texW {
		u -= t.texW
	}
	return u
}

// plan records the texel accesses of a shaded quad at texel (u, v) into
// the plan's tap stream, all routed to texture cache cacheIdx.
func (t *quadTaps) plan(u, v uint64, cacheIdx uint8, plan *TilePlan) {
	if !t.enabled {
		return
	}
	base := memmap.TexturesBase + t.mipBase
	plan.tap(base+(v*t.texW+u)*4, cacheIdx)
	if t.bilinear {
		u1, v1 := (u+1)%t.texW, (v+1)%t.texW
		plan.tap(base+(v*t.texW+u1)*4, cacheIdx)
		plan.tap(base+(v1*t.texW+u)*4, cacheIdx)
		plan.tap(base+(v1*t.texW+u1)*4, cacheIdx)
	}
}

// tap appends one texture tap at byte address addr, routed to texture
// cache c, to the run-length coded stream: a tap reading the same block of
// the same cache as the previous entry extends that entry's run. This is
// exact because the texture caches are LRU, read-only and write-allocate
// (New): a repeat is a read hit on the line its cache touched last, which
// already holds that cache's newest timestamp, so it changes no victim
// choice and issues no L2 request. CommitPlan replays each run as one
// access plus run-1 hits. A full run starts a new entry rather than wrap.
func (p *TilePlan) tap(addr uint64, c uint8) {
	block := addr &^ (memmap.BlockBytes - 1)
	if n := len(p.TapAddrs) - 1; n >= 0 && p.TapAddrs[n] == block && p.TapCache[n] == c && p.TapRuns[n] < math.MaxUint32 {
		p.TapRuns[n]++
		return
	}
	p.TapAddrs = append(p.TapAddrs, block)
	p.TapCache = append(p.TapCache, c)
	p.TapRuns = append(p.TapRuns, 1)
}
