package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ReferenceOverlappedTiles is the per-tile oracle for OverlappedTiles: it
// runs TriangleRectOverlap on every tile of the primitive's screen-clipped
// bounding box, in row-major order. It is exported to this package's
// external tests, which compare it with OverlappedTiles on generated
// scenes.
func ReferenceOverlappedTiles(s Screen, p *Primitive, dst []TileID) []TileID {
	bb := p.BBox()
	if bb.Max.X < 0 || bb.Max.Y < 0 ||
		bb.Min.X > float32(s.Width) || bb.Min.Y > float32(s.Height) {
		return dst
	}
	x0 := clampInt(int(bb.Min.X)/s.TileSize, 0, s.TilesX()-1)
	x1 := clampInt(int(bb.Max.X)/s.TileSize, 0, s.TilesX()-1)
	y0 := clampInt(int(bb.Min.Y)/s.TileSize, 0, s.TilesY()-1)
	y1 := clampInt(int(bb.Max.Y)/s.TileSize, 0, s.TilesY()-1)
	for ty := y0; ty <= y1; ty++ {
		for tx := x0; tx <= x1; tx++ {
			t := TileID(ty*s.TilesX() + tx)
			if TriangleRectOverlap(p.Pos[0], p.Pos[1], p.Pos[2], s.TileRect(t)) {
				dst = append(dst, t)
			}
		}
	}
	return dst
}

// overlapTestScreens are the screens the differential checks run on: the
// Table I screen, whose last tile column is clipped, and a small screen
// whose last column and row are both clipped.
var overlapTestScreens = []Screen{
	DefaultScreen(),
	{Width: 201, Height: 117, TileSize: 16},
}

func checkOverlappedTiles(t *testing.T, p *Primitive) {
	t.Helper()
	for _, s := range overlapTestScreens {
		got := s.OverlappedTiles(p, nil)
		want := ReferenceOverlappedTiles(s, p, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("screen %dx%d/%d, triangle %v:\nOverlappedTiles = %v\nreference       = %v",
				s.Width, s.Height, s.TileSize, p.Pos, got, want)
		}
	}
}

// TestOverlappedTilesMatchesReferenceRandom compares the row-span path with
// the per-tile oracle on a deterministic mix of random triangles: compact
// ones, slivers, large ones reaching off screen, vertices snapped to tile
// corners and edges, collinear triangles, coordinates near ±1e7 and beyond
// float32's product range, and non-finite coordinates.
func TestOverlappedTilesMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	coord := func(kind int, extent float64) float32 {
		switch kind {
		case 0: // anywhere around the screen
			return float32(rng.Float64()*extent*1.4 - extent*0.2)
		case 1: // on the 16- and 32-pixel tile grids
			return float32(rng.Intn(int(extent)/16+3)*16 - 16)
		case 2: // far off screen
			return float32((rng.Float64()*2 - 1) * 1e7)
		case 3: // beyond the range where edge products stay finite
			return float32((rng.Float64()*2 - 1) * 1e30)
		default: // non-finite
			return []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[rng.Intn(3)]
		}
	}
	for i := 0; i < n; i++ {
		var p Primitive
		switch roll := rng.Intn(20); {
		case roll < 8: // compact, near a random point
			cx, cy := rng.Float64()*2000, rng.Float64()*800
			size := math.Exp(rng.NormFloat64()*1.5) * 20
			for v := range p.Pos {
				p.Pos[v] = Vec2{float32(cx + (rng.Float64()-0.5)*size), float32(cy + (rng.Float64()-0.5)*size)}
			}
		case roll < 12: // sliver at a random angle
			cx, cy := rng.Float64()*2000, rng.Float64()*800
			th := rng.Float64() * math.Pi
			l, w := rng.Float64()*1500, rng.Float64()*2
			dx, dy := math.Cos(th)*l/2, math.Sin(th)*l/2
			p.Pos[0] = Vec2{float32(cx - dx), float32(cy - dy)}
			p.Pos[1] = Vec2{float32(cx + dx), float32(cy + dy)}
			p.Pos[2] = Vec2{float32(cx - math.Sin(th)*w), float32(cy + math.Cos(th)*w)}
		case roll < 14: // collinear or coincident vertices
			a := Vec2{coord(0, 2000), coord(0, 800)}
			d := Vec2{coord(0, 100) - 50, coord(0, 100) - 50}
			p.Pos = [3]Vec2{a, a.Add(d), a.Add(d.Scale(float32(rng.Intn(4) - 1)))}
		default: // each coordinate of its own kind
			for v := range p.Pos {
				kx, ky := rng.Intn(5), rng.Intn(5)
				if rng.Intn(4) != 0 {
					kx, ky = kx%3, ky%3
				}
				p.Pos[v] = Vec2{coord(kx, 2000), coord(ky, 800)}
			}
		}
		checkOverlappedTiles(t, &p)
	}
}
