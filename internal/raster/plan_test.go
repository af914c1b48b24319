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
				u := (uint64(cx) + off) % p.texW
				v := (uint64(cy) + off>>16 + uint64(frame)*7) % p.texW
				plan.TapAddrs = append(plan.TapAddrs, memmap.TexturesBase+(v*p.texW+u)*4)
				plan.TapCache = append(plan.TapCache, uint8((int(cx)/ts+int(cy)/ts)%NumTexCaches))
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
// ts: partial tiles on the right and bottom, and every material path.
func testConfig(ts int) Config {
	screen := geom.Screen{Width: 5*ts - 7, Height: 3*ts + 5, TileSize: ts}
	cfg := DefaultConfig(screen, 3<<20, 8)
	cfg.LateZFraction = 0.2
	cfg.TranslucentFraction = 0.2
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
// the covered quads, the taps planned and how many of them coalesced.
func checkPlans(t *testing.T, p *Pipeline, prims []geom.Primitive) (quads int64, taps, coalesced int) {
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
		quads += plan.Quads
		taps += sum
		coalesced += sum - len(runs)
	}
	return quads, taps, coalesced
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
// the next tile's cache), with every material path, PlanTile's tallies
// equal the reference's, and its tap stream equals the reference's
// run-length coded. The inputs are randomPrims' triangles and then each
// adversarial family's.
func TestPlanTileMatchesReference(t *testing.T) {
	for _, ts := range []int{24, 31, 32, 33, 64} {
		cfg := testConfig(ts)
		p, err := New(cfg, mem.NewCounter(), mem.NewCounter())
		if err != nil {
			t.Fatal(err)
		}
		w, h := float32(cfg.Screen.Width), float32(cfg.Screen.Height)
		// Every quad is point-sampled, one tap each; the bilinear=false
		// level keeps the subtest names stable.
		name := fmt.Sprintf("ts=%d/bilinear=false", ts)
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
				if quads, _, _ := checkPlans(t, p, prims); quads == 0 {
					t.Fatal("no quad covered; the family exercises too little")
				}
			})
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
// Buffer request sequences and equal texture-cache contents. The texture
// caches' own counters, plus the repeats the plans coalesced, must equal
// the reference caches' counters, and so must the derived TexCacheStats.
// Small texture caches make the replay evict constantly.
func TestCommitPlanMatchesExpandedReplay(t *testing.T) {
	for _, ts := range []int{24, 31, 32, 33, 64} {
		cfg := testConfig(ts)
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
					t.Fatalf("ts=%d tile %d: %d cycles, want %d", ts, tile, gotCycles, wantCycles)
				}
			}
		}
		if p.Stats() != ref.Stats() {
			t.Errorf("ts=%d: stats %+v, want %+v", ts, p.Stats(), ref.Stats())
		}
		got := cache.Stats{Accesses: repeats, Hits: repeats}
		var want cache.Stats
		for i := range p.tex {
			got = addStats(got, p.tex[i].Stats())
			want = addStats(want, ref.tex[i].Stats())
		}
		if got != want {
			t.Errorf("ts=%d: texture caches %+v with repeats, want %+v", ts, got, want)
		}
		if derived := p.TexCacheStats(); derived != want {
			t.Errorf("ts=%d: TexCacheStats %+v, want %+v", ts, derived, want)
		}
		if repeats == 0 || want.Misses == 0 || want.Hits == 0 {
			t.Fatalf("ts=%d: %d repeats, %+v; the test exercises too little", ts, repeats, want)
		}
		if !slices.Equal(l2.reqs, refL2.reqs) || !slices.Equal(fb.reqs, refFB.reqs) {
			t.Errorf("ts=%d: L2 %d/FB %d requests, want %d/%d or a different order", ts, len(l2.reqs), len(fb.reqs), len(refL2.reqs), len(refFB.reqs))
		}
		for i := range p.tex {
			if !slices.Equal(p.tex[i].ResidentKeys(), ref.tex[i].ResidentKeys()) {
				t.Errorf("ts=%d: texture cache %d contents differ", ts, i)
			}
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
