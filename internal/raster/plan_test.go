package raster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tcor/internal/cache"
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
		mat := materialOf(p.cfg, pr.ID)
		for qy := qy0; qy <= qy1; qy++ {
			for qx := qx0; qx <= qx1; qx++ {
				cx := rect.Min.X + float32(qx*QuadSize) + QuadSize/2
				cy := rect.Min.Y + float32(qy*QuadSize) + QuadSize/2
				if !geom.PointInTriangle(geom.Vec2{X: cx, Y: cy}, pr.Pos[0], pr.Pos[1], pr.Pos[2]) {
					continue
				}
				plan.Quads++
				di := qy*p.tileQuads + qx
				switch mat {
				case matBlended:
					if z >= depth[di] {
						continue
					}
					plan.BlendedQuads++
				case matOpaque:
					if z >= depth[di] {
						continue
					}
					depth[di] = z
				default:
					plan.LateZQuads++
					if z < depth[di] {
						depth[di] = z
					}
				}
				plan.QuadsShaded++
				if p.cfg.TextureBytes <= 0 {
					continue
				}
				off := uint64(pr.ID) * 2654435761
				u := (uint64(cx) + off) % p.texW
				v := (uint64(cy) + off>>16 + uint64(frame)*7) % p.texW
				plan.TapAddrs = append(plan.TapAddrs, memmap.TexturesBase+(v*p.texW+u)*4)
				plan.TapCache = append(plan.TapCache, uint8((int(cx)/ts+int(cy)/ts)%NumTexCaches))
			}
		}
	}
	return plan
}

// Materials: the raster path a primitive takes.
const (
	matOpaque  = iota // Early-Z, depth written
	matBlended        // depth-tested, never written
	matLateZ          // shaded unconditionally, depth written where nearer
)

// materialOf returns the material of primitive id under cfg, by the
// per-primitive hashes planPrim draws it with: a translucent primitive
// blends even where the late-Z hash also selects it.
func materialOf(cfg Config, id uint32) int {
	switch {
	case cfg.TranslucentFraction > 0 && float64(id*40503%1000) < cfg.TranslucentFraction*1000:
		return matBlended
	case cfg.LateZFraction > 0 && float64(id*2654435761%1000) < cfg.LateZFraction*1000:
		return matLateZ
	}
	return matOpaque
}

// tapRef appends one tap of byte address addr through texture cache c to
// the plan's run-length coded stream by the per-tap rule: it extends the
// last entry when that reads the same block of the same cache and its run
// is not full, and starts a new entry otherwise.
func tapRef(p *TilePlan, addr uint64, c uint8) {
	block := addr &^ (memmap.BlockBytes - 1)
	if n := len(p.TapAddrs) - 1; n >= 0 && p.TapAddrs[n] == block && p.TapCache[n] == c && p.TapRuns[n] < math.MaxUint32 {
		p.TapRuns[n]++
		return
	}
	p.TapAddrs = append(p.TapAddrs, block)
	p.TapCache = append(p.TapCache, c)
	p.TapRuns = append(p.TapRuns, 1)
}

// TestTapRunFlushMatchesPerTap merges a run of n taps into a plan whose
// last entry is k short of a full run: tapRun.flush must leave the stream
// tapRef leaves after n single taps, for runs that fit, fill and overflow
// the last entry, and for runs of another block or cache, which never
// merge.
func TestTapRunFlushMatchesPerTap(t *testing.T) {
	const block = memmap.TexturesBase + 7*memmap.BlockBytes
	for _, k := range []uint32{0, 1, 5} {
		for _, n := range []uint64{1, uint64(k), uint64(k) + 1, uint64(k) + 9} {
			for _, to := range []struct {
				block uint64
				cache uint8
			}{{block, 2}, {block, 3}, {block + memmap.BlockBytes, 2}} {
				if n == 0 {
					continue
				}
				var got, want TilePlan
				for _, p := range []*TilePlan{&got, &want} {
					p.TapAddrs = []uint64{block - memmap.BlockBytes, block}
					p.TapCache = []uint8{2, 2}
					p.TapRuns = []uint32{3, math.MaxUint32 - k}
				}
				run := tapRun{key: tapKey(to.block, to.cache), n: n}
				run.flush(&got)
				for i := uint64(0); i < n; i++ {
					tapRef(&want, to.block+4*(i%16), to.cache)
				}
				if !slices.Equal(got.TapAddrs, want.TapAddrs) || !slices.Equal(got.TapCache, want.TapCache) || !slices.Equal(got.TapRuns, want.TapRuns) {
					t.Errorf("k=%d n=%d to %#x/%d: stream %v %v %v, want %v %v %v", k, n, to.block, to.cache,
						got.TapAddrs, got.TapCache, got.TapRuns, want.TapAddrs, want.TapCache, want.TapRuns)
				}
				if run.n != 0 {
					t.Errorf("k=%d n=%d: flush left %d taps gathered", k, n, run.n)
				}
			}
		}
	}
}

// coalesce run-length codes an expanded tap stream by the rule PlanTile
// follows, one tapRef per tap.
func coalesce(addrs []uint64, caches []uint8) (blocks []uint64, routes []uint8, runs []uint32) {
	var p TilePlan
	for i, addr := range addrs {
		tapRef(&p, addr, caches[i])
	}
	return p.TapAddrs, p.TapCache, p.TapRuns
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
// ts: partial tiles on the right and bottom, and every material path.
func testConfig(ts int) Config {
	screen := geom.Screen{Width: 5*ts - 7, Height: 3*ts + 5, TileSize: ts}
	cfg := DefaultConfig(screen, 3<<20, 8)
	cfg.LateZFraction = 0.2
	cfg.TranslucentFraction = 0.2
	return cfg
}

// floorTexConfig is testConfig with a texture under 256 B, which New
// widens to the floor of 64 texels: texW is 8, so a row's texel column
// wraps every four quads, inside every span longer than that.
func floorTexConfig(ts int) Config {
	cfg := testConfig(ts)
	cfg.TextureBytes = 200
	return cfg
}

// installSmallTexCaches gives p NumTexCaches 2 KiB 4-way texture caches in
// place of the 64 KiB ones its first FilterTextures would build, so that a
// test's few hundred primitives evict constantly.
func installSmallTexCaches(t *testing.T, p *Pipeline) {
	t.Helper()
	if p.tex != nil {
		t.Fatal("texture caches already built")
	}
	for range NumTexCaches {
		c, err := cache.NewFlatLRU(cache.Config{Lines: cache.LinesFor(2*1024, memmap.BlockBytes), Ways: 4})
		if err != nil {
			t.Fatal(err)
		}
		p.tex = append(p.tex, c)
	}
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

// checkPlans plans every tile of p's screen for prims, the frame cycling
// with the tile, and fails t unless PlanTile's tallies equal refPlanTile's
// and its tap stream equals the reference's run-length coded. It returns
// the tallies summed over the tiles (primitive-tile pairs, covered,
// shaded, late-Z and blended quads), the taps planned and how many of
// them coalesced.
func checkPlans(t *testing.T, p *Pipeline, prims []geom.Primitive) (tally [5]int64, taps, coalesced int) {
	t.Helper()
	screen := p.cfg.Screen
	sc := p.NewScratch()
	var plan TilePlan
	for tile := geom.TileID(0); int(tile) < screen.NumTiles(); tile++ {
		work := tileWork(prims, screen, tile)
		frame := int(tile) % 3
		p.PlanTile(tile, frame, work, sc, &plan)
		want := refPlanTile(p, tile, frame, work)
		got := [5]int64{plan.Prims, plan.Quads, plan.QuadsShaded, plan.LateZQuads, plan.BlendedQuads}
		exp := [5]int64{want.Prims, want.Quads, want.QuadsShaded, want.LateZQuads, want.BlendedQuads}
		if got != exp {
			t.Fatalf("tile %d: tallies %v, want %v", tile, got, exp)
		}
		blocks, routes, runs := coalesce(want.TapAddrs, want.TapCache)
		if !slices.Equal(plan.TapAddrs, blocks) || !slices.Equal(plan.TapCache, routes) || !slices.Equal(plan.TapRuns, runs) {
			t.Fatalf("tile %d: tap streams differ (%d vs %d runs)", tile, len(plan.TapAddrs), len(blocks))
		}
		var sum int
		for _, n := range plan.TapRuns {
			sum += int(n)
		}
		if sum != len(want.TapAddrs) {
			t.Fatalf("tile %d: runs sum to %d taps, want %d", tile, sum, len(want.TapAddrs))
		}
		for i := range tally {
			tally[i] += got[i]
		}
		taps += sum
		coalesced += sum - len(runs)
	}
	return tally, taps, coalesced
}

// adversarialFamilies are the corner cases of planPrim's exact row spans,
// each a generator of one triangle on a w×h screen. The test draws each
// triangle in either winding, so every edge meets both signs of dY.
var adversarialFamilies = []struct {
	name string
	tri  func(rng *rand.Rand, w, h float32) [3]geom.Vec2
}{
	// Slivers narrower than a quad at any angle: most rows cover zero or
	// one quad, and the three crossings of a row fall within a quad of
	// each other.
	{"sliver", func(rng *rand.Rand, w, h float32) [3]geom.Vec2 {
		a := geom.Vec2{X: rng.Float32() * w, Y: rng.Float32() * h}
		sin, cos := math.Sincos(rng.Float64() * 2 * math.Pi)
		dx, dy := float32(cos), float32(sin)
		l := 20 + rng.Float32()*300
		width := 0.01 + rng.Float32()*1.9
		m := rng.Float32() * l
		return [3]geom.Vec2{a, {X: a.X + l*dx, Y: a.Y + l*dy}, {X: a.X + m*dx - width*dy, Y: a.Y + m*dy + width*dx}}
	}},
	// Collinear triangles with three distinct vertices: on a line through
	// quad centers, where every edge value is exactly zero, with vertices
	// a quarter pixel off the grid so that the line runs on past the bbox
	// through quad centers the bbox test alone rejects; or on a float line,
	// where rounding decides every sign.
	{"collinear", func(rng *rand.Rand, w, h float32) [3]geom.Vec2 {
		a := geom.Vec2{X: float32(rng.Intn(int(w))), Y: float32(rng.Intn(int(h)))}
		d := geom.Vec2{X: float32(rng.Intn(9) - 4), Y: float32(rng.Intn(9) - 4)}
		s, u := float32(1+rng.Intn(160))/4, -float32(1+rng.Intn(160))/4
		if rng.Intn(2) == 0 {
			a.X, a.Y = a.X+rng.Float32(), a.Y+rng.Float32()
			d = geom.Vec2{X: rng.Float32()*8 - 4, Y: rng.Float32()*8 - 4}
			s, u = s*rng.Float32(), u*rng.Float32()
		}
		if d.X == 0 && d.Y == 0 {
			d.X = 1
		}
		return [3]geom.Vec2{a, {X: a.X + s*d.X, Y: a.Y + s*d.Y}, {X: a.X + u*d.X, Y: a.Y + u*d.Y}}
	}},
	// Vertices far off-screen: long edges with a large y term, steep or
	// nearly horizontal, whose float32 crossings sit quads away from the
	// real ones.
	{"far-vertex", func(rng *rand.Rand, w, h float32) [3]geom.Vec2 {
		far := func() float32 { return float32(2*rng.Intn(2)-1) * 1e5 * (0.5 + rng.Float32()) }
		on := func() geom.Vec2 { return geom.Vec2{X: rng.Float32() * w, Y: rng.Float32() * h} }
		a, b, c := on(), on(), on()
		switch rng.Intn(3) {
		case 0:
			b = geom.Vec2{X: far(), Y: rng.Float32() * h}
		case 1:
			b = geom.Vec2{X: rng.Float32() * w, Y: far()}
		default:
			a = geom.Vec2{X: -1e5, Y: c.Y + rng.Float32()*8 - 4}
			b = geom.Vec2{X: 1e5, Y: c.Y + rng.Float32()*8 - 4}
			c = geom.Vec2{X: far(), Y: far()}
		}
		return [3]geom.Vec2{a, b, c}
	}},
	// 45° edges through quad centers: integer vertices an even distance
	// apart, so every edge value on the diagonal is exactly zero.
	{"diagonal", func(rng *rand.Rand, w, h float32) [3]geom.Vec2 {
		a := geom.Vec2{X: float32(rng.Intn(int(w))), Y: float32(rng.Intn(int(h)))}
		k := float32(2 + 2*rng.Intn(40))
		sx, sy := float32(2*rng.Intn(2)-1), float32(2*rng.Intn(2)-1)
		b := geom.Vec2{X: a.X + sx*k, Y: a.Y + sy*k}
		c := geom.Vec2{X: a.X + sx*k, Y: a.Y - sy*k}
		if rng.Intn(2) == 0 {
			c = geom.Vec2{X: a.X + 2*sx*k, Y: a.Y} // one horizontal edge
		}
		return [3]geom.Vec2{a, b, c}
	}},
	// Bboxes one quad row or one quad column wide, their borders on or
	// near quad centers.
	{"one-row-or-column", func(rng *rand.Rand, w, h float32) [3]geom.Vec2 {
		off := func() float32 { return []float32{0, 1, 2, rng.Float32() * 1.9}[rng.Intn(4)] }
		spread := func(v float32) float32 { return v + rng.Float32()*200 - 100 }
		if rng.Intn(2) == 0 {
			x, y := rng.Float32()*w, float32(rng.Intn(int(h)))
			return [3]geom.Vec2{{X: x, Y: y + off()}, {X: spread(x), Y: y + off()}, {X: spread(x), Y: y + off()}}
		}
		x, y := float32(rng.Intn(int(w))), rng.Float32()*h
		return [3]geom.Vec2{{X: x + off(), Y: y}, {X: x + off(), Y: spread(y)}, {X: x + off(), Y: spread(y)}}
	}},
}

// TestPlanTileMatchesReference is the differential test of the planner:
// at even and odd tile sizes (where the last quad column and row route to
// the next tile's cache), with every material path, and with a texture
// large enough never to wrap inside a span and one at the floor size,
// PlanTile's tallies equal the reference's, and its tap stream equals the
// reference's run-length coded. The inputs are randomPrims' triangles and
// then each adversarial family's.
func TestPlanTileMatchesReference(t *testing.T) {
	for _, ts := range []int{24, 31, 32, 33, 64} {
		// Every quad is point-sampled, one tap each; the bilinear=false
		// level keeps the subtest names stable. The floor-size texture
		// wraps texel columns inside spans.
		testPlanTileMatchesReference(t, testConfig(ts), fmt.Sprintf("ts=%d/bilinear=false", ts))
		testPlanTileMatchesReference(t, floorTexConfig(ts), fmt.Sprintf("ts=%d/tex=floor", ts))
	}
}

func testPlanTileMatchesReference(t *testing.T, cfg Config, name string) {
	t.Helper()
	p, err := New(cfg, mem.NewCounter(), mem.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	ts := cfg.Screen.TileSize
	w, h := float32(cfg.Screen.Width), float32(cfg.Screen.Height)
	t.Run(name+"/random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(int64(ts)))
		if _, taps, coalesced := checkPlans(t, p, randomPrims(rng, 300, w, h)); taps == 0 || coalesced == 0 {
			t.Fatalf("%d taps planned, %d coalesced; the test exercises too little", taps, coalesced)
		}
	})
	for _, fam := range adversarialFamilies {
		t.Run(name+"/"+fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ts)))
			prims := make([]geom.Primitive, 200)
			for i := range prims {
				pr := &prims[i]
				pr.Pos = fam.tri(rng, w, h)
				if rng.Intn(2) == 0 {
					pr.Pos[1], pr.Pos[2] = pr.Pos[2], pr.Pos[1]
				}
				pr.ID = rng.Uint32()
				for v := range pr.Depth {
					pr.Depth[v] = rng.Float32()
				}
			}
			if tally, _, _ := checkPlans(t, p, prims); tally[1] == 0 {
				t.Fatal("no quad covered; the family exercises too little")
			}
		})
	}
	t.Run(name+"/occluded", func(t *testing.T) {
		rng := rand.New(rand.NewSource(int64(ts)))
		tally, _, _ := checkPlans(t, p, occludedPrims(rng, cfg, 150))
		// Some quads of every material are shaded and some rejected.
		if tally[3] == 0 || tally[4] == 0 || tally[2] == tally[1] {
			t.Fatalf("tallies %v; the family exercises too little", tally)
		}
	})
}

// occludedPrims draws n pairs: an opaque occluder, then a blended, late-Z
// or opaque triangle (in turn) behind it, whose row spans the occluder
// cuts at the start, in the middle or at the end. The triangles behind
// are wide and flat, 2 to 39 quads at the base and narrowing row by row,
// so the runs the occluder leaves are both shorter and longer than a
// block's 8 quads. The pairs overlap each other, so later triangles also
// meet the depths earlier ones wrote, or (blended) did not write.
func occludedPrims(rng *rand.Rand, cfg Config, n int) []geom.Primitive {
	w, h := float32(cfg.Screen.Width), float32(cfg.Screen.Height)
	prim := func(mat int, depth float32, pos ...geom.Vec2) geom.Primitive {
		pr := geom.Primitive{ID: rng.Uint32()}
		for materialOf(cfg, pr.ID) != mat {
			pr.ID = rng.Uint32()
		}
		copy(pr.Pos[:], pos)
		pr.Depth = [3]float32{depth, depth, depth}
		return pr
	}
	var prims []geom.Primitive
	for i := range n {
		width := float32(QuadSize * (2 + rng.Intn(38)))
		height := float32(2 + rng.Intn(24))
		x, y := rng.Float32()*w-width/2, rng.Float32()*h-height/2
		if rng.Intn(2) == 0 { // on the pixel grid
			x, y = float32(math.Floor(float64(x))), float32(math.Floor(float64(y)))
		}
		// The occluder: a band ow pixels wide over every row of the
		// triangle, made of two triangles.
		ow := 1 + rng.Float32()*10
		ox := []float32{x - ow/2, x + (width-ow)/2, x + width - ow/2}[rng.Intn(3)]
		top, bottom := y-3, y+height+3
		near := rng.Float32() * 0.3
		prims = append(prims,
			prim(matOpaque, near, geom.Vec2{X: ox, Y: top}, geom.Vec2{X: ox + ow, Y: top}, geom.Vec2{X: ox, Y: bottom}),
			prim(matOpaque, near, geom.Vec2{X: ox + ow, Y: top}, geom.Vec2{X: ox + ow, Y: bottom}, geom.Vec2{X: ox, Y: bottom}))
		back := prim(i%3, 0.3+rng.Float32()*0.7, // matOpaque, matBlended, matLateZ in turn
			geom.Vec2{X: x, Y: y}, geom.Vec2{X: x + width, Y: y}, geom.Vec2{X: x + rng.Float32()*width, Y: y + height})
		if rng.Intn(2) == 0 {
			back.Pos[1], back.Pos[2] = back.Pos[2], back.Pos[1]
		}
		prims = append(prims, back)
	}
	return prims
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
// Buffer request sequences and equal texture-cache contents. The texture
// caches' own counters, plus the repeats the plans coalesced, must equal
// the reference caches' counters, and so must the derived TexCacheStats.
// Small texture caches make the replay evict constantly; each tile size
// runs with the large and the floor-size texture.
func TestCommitPlanMatchesExpandedReplay(t *testing.T) {
	for _, ts := range []int{24, 31, 32, 33, 64} {
		testCommitPlanMatchesExpandedReplay(t, testConfig(ts), fmt.Sprintf("ts=%d", ts))
		testCommitPlanMatchesExpandedReplay(t, floorTexConfig(ts), fmt.Sprintf("ts=%d tex=floor", ts))
	}
}

func testCommitPlanMatchesExpandedReplay(t *testing.T, cfg Config, name string) {
	t.Helper()
	ts := cfg.Screen.TileSize
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
	installSmallTexCaches(t, p)
	installSmallTexCaches(t, ref)
	rng := rand.New(rand.NewSource(int64(ts)))
	prims := randomPrims(rng, 300, float32(screen.Width), float32(screen.Height))
	sc := p.NewScratch()
	var plan TilePlan
	var repeats int64
	for frame := 0; frame < 2; frame++ {
		for tile := geom.TileID(0); int(tile) < screen.NumTiles(); tile++ {
			work := tileWork(prims, screen, tile)
			p.PlanTile(tile, frame, work, sc, &plan)
			for _, n := range plan.TapRuns {
				repeats += int64(n) - 1
			}
			gotCycles := p.CommitPlan(&plan)

			expanded := refPlanTile(ref, tile, frame, work)
			expanded.FBBase, expanded.FBBlocks = plan.FBBase, plan.FBBlocks
			for i := range expanded.TapAddrs {
				expanded.TapAddrs[i] &^= memmap.BlockBytes - 1
				expanded.TapRuns = append(expanded.TapRuns, 1)
			}
			if wantCycles := ref.CommitPlan(&expanded); gotCycles != wantCycles {
				t.Fatalf("%s tile %d: %d cycles, want %d", name, tile, gotCycles, wantCycles)
			}
		}
	}
	if p.Stats() != ref.Stats() {
		t.Errorf("%s: stats %+v, want %+v", name, p.Stats(), ref.Stats())
	}
	got := cache.Stats{Accesses: repeats, Hits: repeats}
	var want cache.Stats
	for i := range p.tex {
		got = addStats(got, p.tex[i].Stats())
		want = addStats(want, ref.tex[i].Stats())
	}
	if got != want {
		t.Errorf("%s: texture caches %+v with repeats, want %+v", name, got, want)
	}
	if derived := p.TexCacheStats(); derived != want {
		t.Errorf("%s: TexCacheStats %+v, want %+v", name, derived, want)
	}
	if repeats == 0 || want.Misses == 0 || want.Hits == 0 {
		t.Fatalf("%s: %d repeats, %+v; the test exercises too little", name, repeats, want)
	}
	if !slices.Equal(l2.reqs, refL2.reqs) || !slices.Equal(fb.reqs, refFB.reqs) {
		t.Errorf("%s: L2 %d/FB %d requests, want %d/%d or a different order", name, len(l2.reqs), len(fb.reqs), len(refL2.reqs), len(refFB.reqs))
	}
	for i := range p.tex {
		if !slices.Equal(p.tex[i].ResidentKeys(), ref.tex[i].ResidentKeys()) {
			t.Errorf("%s: texture cache %d contents differ", name, i)
		}
	}
}

// TestCommitFilteredBuildsNoTexCaches commits one pipeline's filtered
// plans into a second pipeline: the second holds no texture caches, since
// only FilterTextures builds them, yet ends with the first's statistics
// and the same L2 and Frame Buffer request sequences.
func TestCommitFilteredBuildsNoTexCaches(t *testing.T) {
	cfg := testConfig(31)
	var l2, fb, leadL2, leadFB recorder
	lead, err := New(cfg, &leadL2, &leadFB)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg, &l2, &fb)
	if err != nil {
		t.Fatal(err)
	}
	if lead.TexCaches() != 0 || p.TexCaches() != 0 {
		t.Fatalf("New built %d and %d texture caches, want none", lead.TexCaches(), p.TexCaches())
	}
	prims := randomPrims(rand.New(rand.NewSource(5)), 200, float32(cfg.Screen.Width), float32(cfg.Screen.Height))
	sc := lead.NewScratch()
	var plan TilePlan
	for tile := geom.TileID(0); int(tile) < cfg.Screen.NumTiles(); tile++ {
		lead.PlanTile(tile, 0, tileWork(prims, cfg.Screen, tile), sc, &plan)
		lead.FilterTextures(&plan)
		if got, want := p.CommitFiltered(&plan), lead.CommitFiltered(&plan); got != want {
			t.Fatalf("tile %d: %d cycles, want %d", tile, got, want)
		}
	}
	if lead.TexCaches() != NumTexCaches {
		t.Errorf("filtering pipeline holds %d texture caches, want %d", lead.TexCaches(), NumTexCaches)
	}
	if p.TexCaches() != 0 {
		t.Errorf("committing pipeline holds %d texture caches, want none", p.TexCaches())
	}
	if p.Stats() != lead.Stats() || lead.Stats().TexAccesses == 0 {
		t.Errorf("stats %+v, want %+v with texture accesses", p.Stats(), lead.Stats())
	}
	if !slices.Equal(l2.reqs, leadL2.reqs) || !slices.Equal(fb.reqs, leadFB.reqs) {
		t.Errorf("L2 %d/FB %d requests, want %d/%d or a different order", len(l2.reqs), len(fb.reqs), len(leadL2.reqs), len(leadFB.reqs))
	}
}

// addStats returns the field-wise sum of two cache counter sets.
func addStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:    a.Accesses + b.Accesses,
		Hits:        a.Hits + b.Hits,
		Misses:      a.Misses + b.Misses,
		ReadMisses:  a.ReadMisses + b.ReadMisses,
		WriteMisses: a.WriteMisses + b.WriteMisses,
		Writebacks:  a.Writebacks + b.Writebacks,
		Bypasses:    a.Bypasses + b.Bypasses,
		Fills:       a.Fills + b.Fills,
	}
}
