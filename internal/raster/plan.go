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
// slices instead of allocating per-access records. PlanTile fills it as a
// pure function of (tile, frame, primitive list, config): it never reads
// cache or DRAM state. FilterTextures then runs the tap stream through one
// pipeline's texture caches and records the misses in the plan, and
// CommitFiltered replays the filtered plan into the shared hierarchy; so
// planning, filtering and committing can be timed and tested apart.
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

	// Texture filter output (FilterTextures): the number of taps the
	// stream stands for and the block addresses of the tap runs that
	// missed their texture cache, in issue order.
	TexTaps   int64
	TexMisses []uint64
}

// Reset clears the plan for reuse, keeping the tap capacity.
func (p *TilePlan) Reset() {
	p.Code = 0
	p.Prims, p.Quads, p.QuadsShaded, p.LateZQuads, p.BlendedQuads = 0, 0, 0, 0, 0
	p.TapAddrs = p.TapAddrs[:0]
	p.TapCache = p.TapCache[:0]
	p.TapRuns = p.TapRuns[:0]
	p.FBBase, p.FBBlocks = 0, 0
	p.TexTaps = 0
	p.TexMisses = p.TexMisses[:0]
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

// PlanTile computes the raster plan of one tile's primitive list (in order)
// into plan, which it resets first. Rasterizing a tile is PlanTile then
// CommitPlan; the plan models:
//   - quad coverage: the quads whose centers geom.PointInTriangle accepts,
//     found per quad row from exact edge-function spans (planPrim),
//   - Early-Z rejection against the on-chip Z-buffer (opaque geometry,
//     painter's order),
//   - the texture taps of each surviving quad, routed to the
//     screen-interleaved texture caches,
//   - the shaded quads that fix the fragment shading cost,
//   - the Color Buffer flush of the finished tile to the Frame Buffer.
//
// PlanTile reads only immutable pipeline configuration, so distinct
// (scratch, plan) pairs may plan distinct tiles concurrently, and one plan
// may be committed into every pipeline built from the same Config.
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
// screen tiles: a quad's tap goes to cache (column + row) % NumTexCaches of
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
		r.cache[i] = uint8((tx + ty + i) % NumTexCaches)
	}
	return r
}

// CommitPlan rasterizes a planned tile into this pipeline: FilterTextures
// then CommitFiltered. It returns the tile's raster cycles. Commit order
// across tiles must match the traversal order.
func (p *Pipeline) CommitPlan(plan *TilePlan) int64 {
	p.FilterTextures(plan)
	return p.CommitFiltered(plan)
}

// FilterTextures runs the plan's tap runs through this pipeline's texture
// caches, one read per run (the run's repeats are hits; see TilePlan.tap),
// and records the outcome in the plan: TexTaps counts the taps and
// TexMisses lists the blocks that missed, in issue order. It is the half
// of CommitPlan that touches the texture caches, and the texture caches
// read nothing else: every pipeline built from one Config that is fed the
// same plans in the same order would filter them identically. So one
// pipeline may filter each plan and every such pipeline commit it. The
// texture caches are built on the first call, so a pipeline that only
// commits plans others filtered never holds any.
func (p *Pipeline) FilterTextures(plan *TilePlan) {
	if p.tex == nil {
		p.tex = newTexCaches()
	}
	misses := plan.TexMisses[:0]
	var taps int64
	for i, addr := range plan.TapAddrs {
		taps += int64(plan.TapRuns[i])
		if !p.tex[plan.TapCache[i]].Read(memmap.Block(addr)) {
			misses = append(misses, addr)
		}
	}
	plan.TexTaps, plan.TexMisses = taps, misses
}

// CommitFiltered commits a plan FilterTextures has filtered: it replays
// the texture misses into the L2, flushes the Color Buffer to the Frame
// Buffer and folds the plan's tallies into the pipeline statistics,
// returning the tile's raster cycles. Commit order across tiles must match
// the traversal order. CommitFiltered does not touch the texture caches
// and does not modify the plan.
func (p *Pipeline) CommitFiltered(plan *TilePlan) int64 {
	p.stats.Primitives += plan.Prims
	p.stats.Quads += plan.Quads
	p.stats.LateZQuads += plan.LateZQuads
	p.stats.BlendedQuads += plan.BlendedQuads

	p.stats.TexAccesses += plan.TexTaps
	p.stats.TexMisses += int64(len(plan.TexMisses))
	for _, addr := range plan.TexMisses {
		p.l2.Access(mem.Request{Addr: addr})
	}

	fragments := plan.QuadsShaded * QuadSize * QuadSize
	instr := fragments * int64(p.cfg.ShaderInstrPerPixel)
	p.stats.QuadsShaded += plan.QuadsShaded
	p.stats.Fragments += fragments
	p.stats.InstrExecuted += instr

	mem.WriteBlocks(p.fb, plan.FBBase, plan.FBBlocks)
	p.stats.FBBlocksFlushed += plan.FBBlocks

	cycles := instr / NumFragmentProcessors
	if cycles == 0 && plan.Prims > 0 {
		cycles = 1
	}
	p.stats.ShadeCycles += cycles
	return cycles
}

// planPrim plans one primitive in one tile: it finds the quads of the
// tile whose centers geom.PointInTriangle accepts, tests them against the
// scratch Z-buffer in row-major order, and records the texture taps of
// surviving quads into the plan.
//
// Coverage comes from exact row spans, with no per-quad test. The bbox
// test is a clip of the quad rows and columns, once per primitive.
// PointInTriangle then accepts a center when none of its three edge
// functions is positive, or none is negative. Along a quad row each edge
// function float32((cx−P.X)·dY) − yT is monotone in cx, in the direction
// of dY's sign: the centers cx are exact integers, and float32 subtraction
// and multiplication round monotonically. So each edge's negative, zero
// and positive quads form three consecutive runs, and each of the two
// acceptance conditions holds on one interval of the row: the
// intersection of one run-bounded interval per edge. edge.crossing finds
// the run boundaries. The covered quads are the union of the two
// intervals, visited left to right, so Early-Z and the taps see them in
// the order a per-quad test would. Every float32 expression keeps
// PointInTriangle's operands and order, and the explicit float32
// conversions forbid fused multiply-adds, so coverage is bit-identical to
// calling it while the edge products are finite (vertex coordinates within
// about ±1e18).
func (p *Pipeline) planPrim(pr *geom.Primitive, tile geom.Rect, route texRoute, frame int, sc *PlanScratch, plan *TilePlan) int64 {
	bb := pr.BBox()
	x0 := maxF(bb.Min.X, tile.Min.X)
	y0 := maxF(bb.Min.Y, tile.Min.Y)
	x1 := minF(bb.Max.X, tile.Max.X)
	y1 := minF(bb.Max.Y, tile.Max.Y)
	if x0 >= x1 || y0 >= y1 {
		return 0
	}
	// Snap to the tile's quad grid, then clip to the quads whose centers
	// lie inside the bbox (PointInTriangle's first test).
	qx0 := int(x0-tile.Min.X) / QuadSize
	qy0 := int(y0-tile.Min.Y) / QuadSize
	qx1 := min(int(x1-tile.Min.X-0.0001)/QuadSize, p.tileQuads-1)
	qy1 := min(int(y1-tile.Min.Y-0.0001)/QuadSize, p.tileQuads-1)
	for ; qx0 <= qx1 && quadCenter(tile.Min.X, qx0) < bb.Min.X; qx0++ {
	}
	for ; qx1 >= qx0 && quadCenter(tile.Min.X, qx1) > bb.Max.X; qx1-- {
	}
	for ; qy0 <= qy1 && quadCenter(tile.Min.Y, qy0) < bb.Min.Y; qy0++ {
	}
	for ; qy1 >= qy0 && quadCenter(tile.Min.Y, qy1) > bb.Max.Y; qy1-- {
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
	// geom.PointInTriangle's sign(p, a, b), sign(p, b, c), sign(p, c, a).
	edges := [3]edge{
		newEdge(b, a.X-b.X, a.Y-b.Y, tile.Min.X),
		newEdge(c, b.X-c.X, b.Y-c.Y, tile.Min.X),
		newEdge(a, c.X-a.X, c.Y-a.Y, tile.Min.X),
	}
	lo, hi := qx0, qx1+1 // half-open
	taps := p.tapsFor(pr, frame)
	var survived int64
rows:
	for qy := qy0; qy <= qy1; qy++ {
		cy := quadCenter(tile.Min.Y, qy)
		// [ls, le) has no positive edge, [rs, re) no negative one.
		ls, le, rs, re := lo, hi, lo, hi
		for i := range edges {
			e := &edges[i]
			yT := float32(e.dX * (cy - e.o.Y))
			nonNeg, pos := e.crossing(yT, tile.Min.X, lo, hi)
			if e.flip {
				ls, re = max(ls, nonNeg), min(re, pos)
			} else {
				rs, le = max(rs, nonNeg), min(le, pos)
			}
			if ls >= le && rs >= re {
				continue rows
			}
		}
		// Order the two spans by start and merge them if they overlap or
		// touch.
		if rs < ls {
			ls, le, rs, re = rs, re, ls, le
		}
		if le >= rs {
			le, rs = max(le, re), re
		}
		rowEdges := 0
		if qy >= route.straddle {
			rowEdges = 1
		}
		v := taps.v(cy)
		for span := 0; span < 2; span++ {
			from, to := ls, le
			if span == 1 {
				from, to = rs, re
			}
			if from >= to {
				continue
			}
			u := taps.u(quadCenter(tile.Min.X, from))
			for qx := from; qx < to; qx, u = qx+1, taps.next(u) {
				plan.Quads++
				di := qy*p.tileQuads + qx
				if translucent {
					// Blend: depth-tested against opaque geometry but
					// never written; the Color Buffer is read and
					// re-written.
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
					// Late-Z: shade unconditionally, then depth-test the
					// result.
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
	}
	return survived
}

// quadCenter returns the coordinate of the center of quad q of a tile
// whose edge is at origin: an exact integer, as every tile edge is one.
func quadCenter(origin float32, q int) float32 {
	return origin + float32(q*QuadSize) + QuadSize/2
}

// edge is one edge function of geom.PointInTriangle, f(cx, cy) =
// float32((cx−o.X)·dY) − float32(dX·(cy−o.Y)), oriented so that dY ≥ 0
// and f never falls along a quad row. flip records that orienting it
// negated dX and dY, which negates f exactly (round-to-nearest is
// symmetric), so the original function's sign is the opposite one.
type edge struct {
	o      geom.Vec2
	dX, dY float32
	flip   bool
	// f's zero along the row at cy lies near quad q0 + yT·qPerYT in real
	// arithmetic, where yT is the row's y term.
	q0, qPerYT float64
}

func newEdge(o geom.Vec2, dX, dY, tileMinX float32) edge {
	e := edge{o: o, dX: dX, dY: dY}
	if dY < 0 {
		e.dX, e.dY, e.flip = -dX, -dY, true
	}
	if e.dY > 0 {
		// cx(q) = tileMinX + QuadSize·q + QuadSize/2 and f = 0 at
		// cx = o.X + yT/dY.
		e.q0 = (float64(o.X) - float64(tileMinX) - QuadSize/2) / QuadSize
		e.qPerYT = 1 / (QuadSize * float64(e.dY))
	}
	return e
}

// at evaluates the edge function at quad column q of a row with y term yT.
func (e *edge) at(q int, yT, tileMinX float32) float32 {
	return float32((quadCenter(tileMinX, q)-e.o.X)*e.dY) - yT
}

// crossing returns, among the quad columns [lo, hi) of a row with y term
// yT, the first at which f ≥ 0 and the first at which f > 0 (hi when there
// is none). With dY == 0, f is ±0 − yT all along the row. Otherwise it
// starts from the estimated zero rounded up and steps to where f's sign
// changes: left while the previous quad still has f ≥ 0, right while this
// one has f < 0, then right over the quads with f == 0. Since f never
// falls along the row, the steps end exactly there from any start.
func (e *edge) crossing(yT, tileMinX float32, lo, hi int) (nonNeg, pos int) {
	if e.dY == 0 {
		nonNeg, pos = lo, lo
		if yT > 0 {
			nonNeg = hi
		}
		if yT >= 0 {
			pos = hi
		}
		return nonNeg, pos
	}
	k := hi
	if t := e.q0 + float64(yT)*e.qPerYT + 1; t < float64(hi) {
		k = lo
		if t > float64(lo) {
			k = int(t)
		}
	}
	for k > lo && e.at(k-1, yT, tileMinX) >= 0 {
		k--
	}
	f := float32(1) // f at k; k == hi stands for +∞
	for ; k < hi; k++ {
		if f = e.at(k, yT, tileMinX); f >= 0 {
			break
		}
	}
	nonNeg = k
	for f == 0 {
		if k++; k < hi {
			f = e.at(k, yT, tileMinX)
		} else {
			f = 1
		}
	}
	return nonNeg, k
}

// quadTaps holds one primitive's texel address terms, computed once per
// primitive; the cache simulation is FilterTextures', during the ordered
// replay.
type quadTaps struct {
	enabled bool   // the workload has textures
	off     uint64 // per-primitive offset spreading objects across the atlas
	vOff    uint64 // the offset's row share plus the per-frame scroll
	texW    uint64 // texels per row
}

func (p *Pipeline) tapsFor(pr *geom.Primitive, frame int) quadTaps {
	t := quadTaps{
		enabled: p.cfg.TextureBytes > 0,
		off:     uint64(pr.ID) * 2654435761,
		texW:    p.texW,
	}
	t.vOff = t.off>>16 + uint64(frame)*7
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

// plan records the texel access of a shaded quad at texel (u, v) into the
// plan's tap stream, routed to texture cache cacheIdx.
func (t *quadTaps) plan(u, v uint64, cacheIdx uint8, plan *TilePlan) {
	if !t.enabled {
		return
	}
	plan.tap(memmap.TexturesBase+(v*t.texW+u)*4, cacheIdx)
}

// tap appends one texture tap at byte address addr, routed to texture
// cache c, to the run-length coded stream: a tap reading the same block of
// the same cache as the previous entry extends that entry's run. This is
// exact because the texture caches are LRU, read-only and write-allocate
// (newTexCaches): a repeat is a read hit on the line its cache touched
// last, which already holds that cache's newest timestamp, so it changes
// no victim choice and issues no L2 request. FilterTextures replays each
// run as one access plus run-1 hits. A full run starts a new entry rather
// than wrap.
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
