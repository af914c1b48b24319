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
	var run tapRun
	for _, w := range work {
		plan.Prims++
		plan.QuadsShaded += p.planPrim(w.Prim, rect, route, frame, sc, &run, plan)
	}
	run.flush(plan)

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
// caches, one read per run (the run's repeats are hits; see tapRun.flush),
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
// surviving quads into run and the plan.
//
// Coverage comes from exact spans, with no per-quad test. The bbox test is
// a clip of the quad rows and columns, once per primitive.
// PointInTriangle then accepts a center when none of its three edge
// functions is positive, or none is negative. Each edge function
// f = float32((cx−P.X)·dY) − yT, yT = float32(dX·(cy−P.Y)), is monotone
// in cx in the direction of dY's sign and in cy in the direction of
// −dX's: the centers are exact integers, and float32 subtraction and
// multiplication round monotonically. So along a quad row each edge's
// negative, zero and positive quads form three consecutive runs, and each
// of the two acceptance conditions holds on one interval of the row: the
// intersection of one run-bounded interval per edge. edge.crossing finds
// the run boundaries. Over the whole clipped box, f's extremes lie at two
// known corners, so classify folds an edge with one strict sign there into
// bounds that hold for every row, and only the other edges cross row by
// row. The covered quads are the union of the two intervals, visited left
// to right, so Early-Z and the taps see them in the order a per-quad test
// would. Every float32 expression keeps PointInTriangle's operands and
// order, and the explicit float32 conversions forbid fused multiply-adds,
// so coverage is bit-identical to calling it while the edge products are
// finite (vertex coordinates within about ±1e18).
//
// Each row span is then split into the runs of quads that pass the
// per-quad depth condition (z >= depth rejects, so a NaN z passes), and
// every run is planned whole: counted, its depths written on the opaque
// Early-Z path and left alone when blended, and its taps added a stretch
// at a time (quadTaps.span). Late-Z shades every quad, so its whole span
// is one run whose depths take the nearer z. This is what a per-quad
// loop would do quad by quad, since each quad reads and writes only its
// own depth slot. Taps gather in the tile's tapRun and join the plan's
// stream when the run ends.
func (p *Pipeline) planPrim(pr *geom.Primitive, tile geom.Rect, route texRoute, frame int, sc *PlanScratch, run *tapRun, plan *TilePlan) int64 {
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
	if qx0 > qx1 || qy0 > qy1 {
		return 0
	}
	z := (pr.Depth[0] + pr.Depth[1] + pr.Depth[2]) / 3
	// Translucent materials neither occlude nor get occluded by later
	// translucent layers; they blend over whatever is resident.
	translucent := p.cfg.TranslucentFraction > 0 &&
		float64(pr.ID*40503%1000) < p.cfg.TranslucentFraction*1000
	// Depth-writing materials disable the Early Z-Test (§II-A); the choice
	// is a deterministic per-primitive hash so a given fraction of the
	// geometry takes the late path. A translucent one blends instead.
	lateZ := !translucent && p.cfg.LateZFraction > 0 &&
		float64(pr.ID*2654435761%1000) < p.cfg.LateZFraction*1000
	a, b, c := pr.Pos[0], pr.Pos[1], pr.Pos[2]
	// geom.PointInTriangle's sign(p, a, b), sign(p, b, c), sign(p, c, a).
	edges := [3]edge{
		newEdge(b, a.X-b.X, a.Y-b.Y),
		newEdge(c, b.X-c.X, b.Y-c.Y),
		newEdge(a, c.X-a.X, c.Y-a.Y),
	}
	lo, hi := qx0, qx1+1 // half-open
	// [ls, le) has no positive edge, [rs, re) no negative one, on every
	// row as far as the edges folded in so far decide. An edge with an end
	// inside the tile runs into it and changes sign there, so only an edge
	// with both ends outside is worth classifying; a primitive whose bbox
	// the tile does not clip has none.
	ls, le, rs, re := lo, hi, lo, hi
	mixed := edges[:]
	inA, inB, inC := tile.Contains(a), tile.Contains(b), tile.Contains(c)
	if ends := [3]bool{!inA && !inB, !inB && !inC, !inC && !inA}; ends != [3]bool{} {
		cyLo, cyHi := quadCenter(tile.Min.Y, qy0), quadCenter(tile.Min.Y, qy1)
		n := 0
		for i := range edges {
			sign := 0
			if ends[i] {
				sign = edges[i].classify(tile.Min.X, lo, hi-1, cyLo, cyHi)
			}
			if edges[i].flip {
				sign = -sign // the original function is −f
			}
			switch sign {
			case -1: // the edge is negative at every center
				rs = hi
			case 1: // the edge is positive at every center
				le = lo
			default:
				edges[n] = edges[i]
				n++
			}
		}
		if ls >= le && rs >= re {
			return 0
		}
		mixed = edges[:n]
	}
	for i := range mixed {
		mixed[i].estimate(tile.Min.X)
	}
	taps := p.tapsFor(pr, frame)
	var survived int64
	// Texel coordinates step with the quads, so the columns and rows are
	// reduced modulo texW once per primitive and stepped from there.
	u0 := taps.u(quadCenter(tile.Min.X, lo))
	v := taps.v(quadCenter(tile.Min.Y, qy0))
rows:
	for qy := qy0; qy <= qy1; qy, v = qy+1, taps.next(v) {
		cy := quadCenter(tile.Min.Y, qy)
		ls, le, rs, re := ls, le, rs, re
		for i := range mixed {
			e := &mixed[i]
			nonNeg, pos := e.crossing(e.yT(cy), tile.Min.X, lo, hi)
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
		row := taps.row(v)
		for span := 0; span < 2; span++ {
			qx, to := ls, le
			if span == 1 {
				qx, to = rs, re
			}
			if qx >= to {
				continue
			}
			plan.Quads += int64(to - qx)
			// The row's depths up to the span's end: a quad's slot is d[qx].
			d := sc.depth[qy*p.tileQuads : qy*p.tileQuads+to]
			for qx < len(d) {
				if !lateZ {
					for qx < len(d) && z >= d[qx] { // Early-Z rejects the quad
						qx++
					}
				}
				from := qx
				switch {
				case lateZ:
					// Late-Z: shade the whole span, then depth-test the
					// result.
					for ; qx < len(d); qx++ {
						if z < d[qx] {
							d[qx] = z
						}
					}
					plan.LateZQuads += int64(qx - from)
				case translucent:
					// Blend: depth-tested against opaque geometry but
					// never written; the Color Buffer is read and
					// re-written.
					for qx < len(d) && !(z >= d[qx]) {
						qx++
					}
					plan.BlendedQuads += int64(qx - from)
				default:
					// Early-Z: opaque geometry in submission order.
					for ; qx < len(d) && !(z >= d[qx]); qx++ {
						d[qx] = z
					}
				}
				survived += int64(qx - from)
				if taps.enabled && qx > from {
					taps.span(from, qx, taps.skip(u0, from-lo), row, rowEdges, route, run, plan)
				}
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
	// arithmetic, where yT is the row's y term (set by estimate).
	q0, qPerYT float64
}

func newEdge(o geom.Vec2, dX, dY float32) edge {
	e := edge{o: o, dX: dX, dY: dY}
	if dY < 0 {
		e.dX, e.dY, e.flip = -dX, -dY, true
	}
	return e
}

// estimate sets up crossing's estimate of f's zero along a row, for an
// edge that crosses rows.
func (e *edge) estimate(tileMinX float32) {
	if e.dY > 0 {
		// cx(q) = tileMinX + QuadSize·q + QuadSize/2 and f = 0 at
		// cx = o.X + yT/dY.
		e.q0 = (float64(e.o.X) - float64(tileMinX) - QuadSize/2) / QuadSize
		e.qPerYT = 1 / (QuadSize * float64(e.dY))
	}
}

// at evaluates the edge function at quad column q of a row with y term yT.
func (e *edge) at(q int, yT, tileMinX float32) float32 {
	return float32((quadCenter(tileMinX, q)-e.o.X)*e.dY) - yT
}

// yT returns the y term of the row of quads centered at cy.
func (e *edge) yT(cy float32) float32 {
	return float32(e.dX * (cy - e.o.Y))
}

// classify returns −1 if f < 0 at every quad center of the columns
// [qLo, qHi] of the rows centered cyLo to cyHi, 1 if f > 0 at every one,
// and 0 otherwise. f never falls as cx rises, never rises as yT does, and
// yT moves with cy in the direction of dX's sign, each step a monotone
// float32 rounding. So f's maximum over the box is at column qHi of the
// row with the least yT, its minimum at column qLo of the row with the
// greatest: two evaluations decide the whole box.
func (e *edge) classify(tileMinX float32, qLo, qHi int, cyLo, cyHi float32) int {
	yLo, yHi := e.yT(cyLo), e.yT(cyHi)
	if e.dX < 0 {
		yLo, yHi = yHi, yLo
	}
	if e.at(qHi, yLo, tileMinX) < 0 {
		return -1
	}
	if e.at(qLo, yHi, tileMinX) > 0 {
		return 1
	}
	return 0
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

// Texel addressing: 4-byte texels, and one tap per quad, so the taps of
// adjacent quads in a row lie quadBytes apart.
const (
	texelBytes = 4
	quadBytes  = QuadSize * texelBytes
)

// blockOf returns the address of the block holding byte address addr.
func blockOf(addr uint64) uint64 { return addr &^ (memmap.BlockBytes - 1) }

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

// row returns the byte address of texel row v; the quad sampling texel
// column u of it taps row + u·texelBytes.
func (t *quadTaps) row(v uint64) uint64 {
	return memmap.TexturesBase + v*t.texW*texelBytes
}

// next returns the texel column (or row) of the next quad along the row
// (or column), given this quad's c < texW. Quad centers are integers
// QuadSize apart, so uint64(x) steps exactly by QuadSize, and
// texW >= 8 > QuadSize needs at most one wrap.
func (t *quadTaps) next(c uint64) uint64 {
	c += QuadSize
	if c >= t.texW {
		c -= t.texW
	}
	return c
}

// skip returns the texel column k ≥ 0 quads further along the row than
// column u < texW.
func (t *quadTaps) skip(u uint64, k int) uint64 {
	if u += uint64(k) * QuadSize; u >= t.texW {
		u %= t.texW
	}
	return u
}

// span adds the taps of the quads [from, to) of one row, every one of
// them shaded, to run: the first samples texel column u of the texel row
// at byte address row, and each next one the column next gives. Taps
// share a block and a cache until they leave the block, until u wraps at
// texW or at the route's straddle column, so span adds them one such
// stretch at a time instead of one tap at a time.
func (t *quadTaps) span(from, to int, u, row uint64, rowEdges int, route texRoute, run *tapRun, plan *TilePlan) {
	for qx := from; qx < to; {
		addr := row + u*texelBytes
		n := (memmap.BlockBytes - addr%memmap.BlockBytes + quadBytes - 1) / quadBytes
		n = min(n, (t.texW-u+QuadSize-1)/QuadSize, uint64(to-qx))
		edges := rowEdges
		if qx >= route.straddle {
			edges++
		} else {
			n = min(n, uint64(route.straddle-qx))
		}
		run.add(tapKey(blockOf(addr), route.cache[edges]), n, plan)
		qx += int(n)
		if u += n * QuadSize; u >= t.texW {
			u -= t.texW
		}
	}
}

// tapRun gathers n consecutive taps of one block through one texture
// cache in locals before they join the plan's tap stream. Blocks are
// aligned, so the block address and the cache share one key: the cache
// index sits in the block offset bits.
type tapRun struct {
	key uint64 // block | cache
	n   uint64
}

// The cache index must fit in a block's offset bits.
var _ [memmap.BlockBytes - NumTexCaches]struct{}

// tapKey returns the run key of a tap of block through texture cache c.
func tapKey(block uint64, c uint8) uint64 { return block | uint64(c) }

// add appends n taps with run key key, flushing the gathered run first if
// they do not extend it.
func (r *tapRun) add(key, n uint64, plan *TilePlan) {
	if key != r.key {
		r.flush(plan)
		r.key = key
	}
	r.n += n
}

// flush appends the gathered run to the plan's run-length coded tap
// stream and empties it. The stream ends exactly as it would after r.n
// single taps: a tap reading the same block of the same cache as the
// previous entry extends that entry's run, and a full run starts a new
// entry rather than wrap. This is exact because the texture caches are
// LRU, read-only and write-allocate (newTexCaches): a repeat is a read hit
// on the line its cache touched last, which already holds that cache's
// newest timestamp, so it changes no victim choice and issues no L2
// request. FilterTextures replays each run as one access plus run-1 hits.
func (r *tapRun) flush(plan *TilePlan) {
	n := r.n
	if n == 0 {
		return
	}
	r.n = 0
	block, c := blockOf(r.key), uint8(r.key%memmap.BlockBytes)
	if last := len(plan.TapAddrs) - 1; last >= 0 && plan.TapAddrs[last] == block && plan.TapCache[last] == c {
		k := min(n, math.MaxUint32-uint64(plan.TapRuns[last]))
		plan.TapRuns[last] += uint32(k)
		n -= k
	}
	for n > 0 {
		k := min(n, math.MaxUint32)
		plan.TapAddrs = append(plan.TapAddrs, block)
		plan.TapCache = append(plan.TapCache, c)
		plan.TapRuns = append(plan.TapRuns, uint32(k))
		n -= k
	}
}
