package raster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/mem"
	"tcor/internal/memmap"
)

// refPlanTile is the unhoisted planner: geom.PointInTriangle at every quad
// center, every tap's texel derived from its quad center and its texture
// cache from the tile holding that center, and one stream entry per tap
// (byte addresses, no TapRuns). PlanTile must reproduce its plans exactly
// once the stream is run-length coded (coalesce).
func refPlanTile(p *Pipeline, tile geom.TileID, frame int, work []TileWork) TilePlan {
	var plan TilePlan
	rect := p.cfg.Screen.TileRect(tile)
	ts := p.cfg.Screen.TileSize
	depth := make([]float32, p.tileQuads*p.tileQuads)
	for i := range depth {
		depth[i] = math.MaxFloat32
	}
	for _, w := range work {
		pr := w.Prim
		plan.Prims++
		bb := pr.BBox()
		x0, y0 := maxF(bb.Min.X, rect.Min.X), maxF(bb.Min.Y, rect.Min.Y)
		x1, y1 := minF(bb.Max.X, rect.Max.X), minF(bb.Max.Y, rect.Max.Y)
		if x0 >= x1 || y0 >= y1 {
			continue
		}
		qx0 := int(x0-rect.Min.X) / QuadSize
		qy0 := int(y0-rect.Min.Y) / QuadSize
		qx1 := min(int(x1-rect.Min.X-0.0001)/QuadSize, p.tileQuads-1)
		qy1 := min(int(y1-rect.Min.Y-0.0001)/QuadSize, p.tileQuads-1)
		z := (pr.Depth[0] + pr.Depth[1] + pr.Depth[2]) / 3
		lateZ := p.cfg.LateZFraction > 0 && float64(pr.ID*2654435761%1000) < p.cfg.LateZFraction*1000
		translucent := p.cfg.TranslucentFraction > 0 && float64(pr.ID*40503%1000) < p.cfg.TranslucentFraction*1000
		for qy := qy0; qy <= qy1; qy++ {
			for qx := qx0; qx <= qx1; qx++ {
				cx := rect.Min.X + float32(qx*QuadSize) + QuadSize/2
				cy := rect.Min.Y + float32(qy*QuadSize) + QuadSize/2
				if !geom.PointInTriangle(geom.Vec2{X: cx, Y: cy}, pr.Pos[0], pr.Pos[1], pr.Pos[2]) {
					continue
				}
				plan.Quads++
				di := qy*p.tileQuads + qx
				switch {
				case translucent:
					if z >= depth[di] {
						continue
					}
					plan.BlendedQuads++
				case !lateZ:
					if z >= depth[di] {
						continue
					}
					depth[di] = z
				default:
					plan.LateZQuads++
					depth[di] = min(depth[di], z)
				}
				plan.QuadsShaded++
				if p.cfg.TextureBytes <= 0 {
					continue
				}
				off := uint64(pr.ID) * 2654435761
				texW, mipBase := p.texW, uint64(0)
				if p.cfg.Bilinear {
					lod := 0
					for threshold := float32(1024); pr.Area() < threshold && lod < 4; threshold /= 4 {
						lod++
					}
					for i := 0; i < lod; i++ {
						mipBase += texW * texW * 4
						texW = max(texW/2, 8)
					}
				}
				u := (uint64(cx) + off) % texW
				v := (uint64(cy) + off>>16 + uint64(frame)*7) % texW
				cache := uint8((int(cx)/ts + int(cy)/ts) % p.cfg.NumTexCaches)
				texels := [][2]uint64{{u, v}}
				if p.cfg.Bilinear {
					texels = append(texels, [2]uint64{(u + 1) % texW, v}, [2]uint64{u, (v + 1) % texW}, [2]uint64{(u + 1) % texW, (v + 1) % texW})
				}
				for _, tx := range texels {
					plan.TapAddrs = append(plan.TapAddrs, memmap.TexturesBase+mipBase+(tx[1]*texW+tx[0])*4)
					plan.TapCache = append(plan.TapCache, cache)
				}
			}
		}
	}
	return plan
}

// coalesce run-length codes an expanded tap stream by the rule PlanTile
// follows: a tap extends the previous run when it reads the same block of
// the same texture cache.
func coalesce(addrs []uint64, caches []uint8) (blocks []uint64, routes []uint8, runs []uint32) {
	for i, addr := range addrs {
		block := addr / memmap.BlockBytes * memmap.BlockBytes
		if n := len(blocks); n > 0 && blocks[n-1] == block && routes[n-1] == caches[i] {
			runs[n-1]++
			continue
		}
		blocks = append(blocks, block)
		routes = append(routes, caches[i])
		runs = append(runs, 1)
	}
	return blocks, routes, runs
}

// randomPrims scatters triangles of every size over the screen, snapping
// some vertices to the pixel or quad-center grid so that quad centers land
// exactly on edges and bbox borders, and including axis-aligned and
// degenerate ones.
func randomPrims(rng *rand.Rand, n int, w, h float32) []geom.Primitive {
	coord := func(limit float32) float32 {
		x := rng.Float32()*(limit+40) - 20
		switch rng.Intn(3) {
		case 0:
			return float32(math.Floor(float64(x)))
		case 1:
			return float32(math.Floor(float64(x))) + 1 // quad centers are odd pixels
		}
		return x
	}
	prims := make([]geom.Primitive, n)
	for i := range prims {
		pr := &prims[i]
		pr.ID = rng.Uint32()
		pr.Pos[0] = geom.Vec2{X: coord(w), Y: coord(h)}
		spread := float32([]int{2, 8, 40, 200}[rng.Intn(4)])
		for v := 1; v < 3; v++ {
			pr.Pos[v] = geom.Vec2{
				X: pr.Pos[0].X + float32(math.Round(float64((rng.Float32()*2-1)*spread))),
				Y: pr.Pos[0].Y + (rng.Float32()*2-1)*spread,
			}
		}
		// Edges with a zero dY or dX: a shared Y, a shared X, both (an
		// axis-aligned right triangle) and a degenerate triangle.
		switch rng.Intn(10) {
		case 0:
			pr.Pos[1].Y = pr.Pos[0].Y
		case 1:
			pr.Pos[2].X = pr.Pos[0].X
		case 2:
			pr.Pos[1].Y = pr.Pos[0].Y
			pr.Pos[2].X = pr.Pos[0].X
		case 3:
			pr.Pos[2] = pr.Pos[1]
		}
		for v := range pr.Depth {
			pr.Depth[v] = rng.Float32()
		}
	}
	return prims
}

// testConfig is the differential tests' raster configuration at tile size
// ts: an odd number of texture caches and every material path.
func testConfig(ts int, bilinear bool) Config {
	screen := geom.Screen{Width: 5*ts - 7, Height: 3*ts + 5, TileSize: ts}
	cfg := DefaultConfig(screen, 3<<20, 8)
	cfg.NumTexCaches = 3
	cfg.LateZFraction = 0.2
	cfg.TranslucentFraction = 0.2
	cfg.Bilinear = bilinear
	return cfg
}

// tileWork lists the primitives overlapping a tile, in order.
func tileWork(prims []geom.Primitive, screen geom.Screen, tile geom.TileID) []TileWork {
	var work []TileWork
	for i := range prims {
		if geom.TriangleRectOverlap(prims[i].Pos[0], prims[i].Pos[1], prims[i].Pos[2], screen.TileRect(tile)) {
			work = append(work, TileWork{Prim: &prims[i]})
		}
	}
	return work
}

// TestPlanTileMatchesReference is the differential test of the hoisted
// planner: at even and odd tile sizes (where the last quad column and row
// route to the next tile's cache), with every material path and both
// filtering modes, PlanTile's tallies equal the reference's, and its tap
// stream equals the reference's run-length coded.
func TestPlanTileMatchesReference(t *testing.T) {
	for _, ts := range []int{24, 31, 32, 33, 64} {
		for _, bilinear := range []bool{false, true} {
			cfg := testConfig(ts, bilinear)
			screen := cfg.Screen
			p, err := New(cfg, mem.NewCounter(), mem.NewCounter())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(ts)))
			prims := randomPrims(rng, 300, float32(screen.Width), float32(screen.Height))
			sc := p.NewScratch()
			var plan TilePlan
			var taps, coalesced int
			for tile := geom.TileID(0); int(tile) < screen.NumTiles(); tile++ {
				work := tileWork(prims, screen, tile)
				frame := int(tile) % 3
				p.PlanTile(tile, frame, work, sc, &plan)
				want := refPlanTile(p, tile, frame, work)
				got := [5]int64{plan.Prims, plan.Quads, plan.QuadsShaded, plan.LateZQuads, plan.BlendedQuads}
				exp := [5]int64{want.Prims, want.Quads, want.QuadsShaded, want.LateZQuads, want.BlendedQuads}
				if got != exp {
					t.Fatalf("ts=%d bilinear=%v tile %d: tallies %v, want %v", ts, bilinear, tile, got, exp)
				}
				blocks, routes, runs := coalesce(want.TapAddrs, want.TapCache)
				if !slices.Equal(plan.TapAddrs, blocks) || !slices.Equal(plan.TapCache, routes) || !slices.Equal(plan.TapRuns, runs) {
					t.Fatalf("ts=%d bilinear=%v tile %d: tap streams differ (%d vs %d runs)", ts, bilinear, tile, len(plan.TapAddrs), len(blocks))
				}
				var sum int
				for _, n := range plan.TapRuns {
					sum += int(n)
				}
				if sum != len(want.TapAddrs) {
					t.Fatalf("ts=%d bilinear=%v tile %d: runs sum to %d taps, want %d", ts, bilinear, tile, sum, len(want.TapAddrs))
				}
				taps += sum
				coalesced += sum - len(runs)
			}
			if taps == 0 || coalesced == 0 {
				t.Fatalf("ts=%d: %d taps planned, %d coalesced; the test exercises too little", ts, taps, coalesced)
			}
		}
	}
}

// recorder is a mem.Sink that keeps every request in order.
type recorder struct{ reqs []mem.Request }

func (r *recorder) Access(req mem.Request)          { r.reqs = append(r.reqs, req) }
func (r *recorder) TileRetired(uint16, geom.TileID) {}
func (r *recorder) EndFrame()                       {}

// TestCommitPlanMatchesExpandedReplay is the differential test of tap
// coalescing: committing the run-length coded plans on one pipeline and
// replaying every tap of the reference planner's expanded streams as its
// own cache access on another leave equal statistics, equal L2 and Frame
// Buffer request sequences and equal texture-cache contents. Small texture
// caches make the replay evict constantly.
func TestCommitPlanMatchesExpandedReplay(t *testing.T) {
	for _, ts := range []int{24, 31, 32, 33, 64} {
		for _, bilinear := range []bool{false, true} {
			cfg := testConfig(ts, bilinear)
			cfg.TexCacheBytes = 2 * 1024
			screen := cfg.Screen
			var l2, fb, refL2, refFB recorder
			p, err := New(cfg, &l2, &fb)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(cfg, &refL2, &refFB)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(ts)))
			prims := randomPrims(rng, 300, float32(screen.Width), float32(screen.Height))
			sc := p.NewScratch()
			var plan TilePlan
			for frame := 0; frame < 2; frame++ {
				for tile := geom.TileID(0); int(tile) < screen.NumTiles(); tile++ {
					work := tileWork(prims, screen, tile)
					p.PlanTile(tile, frame, work, sc, &plan)
					gotCycles := p.CommitPlan(&plan)

					expanded := refPlanTile(ref, tile, frame, work)
					expanded.FBBase, expanded.FBBlocks = plan.FBBase, plan.FBBlocks
					for i := range expanded.TapAddrs {
						expanded.TapAddrs[i] &^= memmap.BlockBytes - 1
						expanded.TapRuns = append(expanded.TapRuns, 1)
					}
					if wantCycles := ref.CommitPlan(&expanded); gotCycles != wantCycles {
						t.Fatalf("ts=%d bilinear=%v tile %d: %d cycles, want %d", ts, bilinear, tile, gotCycles, wantCycles)
					}
				}
			}
			if p.Stats() != ref.Stats() {
				t.Errorf("ts=%d bilinear=%v: stats %+v, want %+v", ts, bilinear, p.Stats(), ref.Stats())
			}
			got, want := p.TexCacheStats(), ref.TexCacheStats()
			if got != want {
				t.Errorf("ts=%d bilinear=%v: texture-cache stats %+v, want %+v", ts, bilinear, got, want)
			}
			if p.texRepeats == 0 || want.Misses == 0 || want.Hits == 0 {
				t.Fatalf("ts=%d bilinear=%v: %d repeats, %+v; the test exercises too little", ts, bilinear, p.texRepeats, want)
			}
			if !slices.Equal(l2.reqs, refL2.reqs) || !slices.Equal(fb.reqs, refFB.reqs) {
				t.Errorf("ts=%d bilinear=%v: L2 %d/FB %d requests, want %d/%d or a different order", ts, bilinear, len(l2.reqs), len(fb.reqs), len(refL2.reqs), len(refFB.reqs))
			}
			for i := range p.tex {
				if !slices.Equal(p.tex[i].ResidentKeys(), ref.tex[i].ResidentKeys()) {
					t.Errorf("ts=%d bilinear=%v: texture cache %d contents differ", ts, bilinear, i)
				}
			}
		}
	}
}
