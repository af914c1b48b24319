package geom

import (
	"math"
	"testing"
)

// FuzzTriangleRectOverlap cross-checks the separating-axis overlap test
// against a point-sampling oracle: whenever the SAT test reports no
// overlap, no sampled point of the rectangle may be inside the triangle
// (sampling can prove overlap but never absence, so the check is
// one-sided).
func FuzzTriangleRectOverlap(f *testing.F) {
	f.Add(float32(0), float32(0), float32(10), float32(0), float32(0), float32(10))
	f.Add(float32(50), float32(20), float32(20), float32(50), float32(70), float32(70))
	f.Add(float32(-5), float32(-5), float32(40), float32(-5), float32(-5), float32(40))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy float32) {
		bound := func(v float32) float32 {
			if v != v || v > 1e6 || v < -1e6 { // NaN/huge inputs: clamp
				return 0
			}
			return v
		}
		a := Vec2{bound(ax), bound(ay)}
		b := Vec2{bound(bx), bound(by)}
		c := Vec2{bound(cx), bound(cy)}
		r := Rect{Min: Vec2{8, 8}, Max: Vec2{24, 24}}
		if TriangleRectOverlap(a, b, c, r) {
			return
		}
		for x := r.Min.X; x <= r.Max.X; x += 1.5 {
			for y := r.Min.Y; y <= r.Max.Y; y += 1.5 {
				if PointInTriangle(Vec2{x, y}, a, b, c) {
					t.Fatalf("SAT says no overlap but (%v,%v) is inside triangle (%v %v %v)",
						x, y, a, b, c)
				}
			}
		}
	})
}

// FuzzOverlappedTilesMatchesReference cross-checks OverlappedTiles' row
// spans against the per-tile oracle ReferenceOverlappedTiles on one fuzzed
// triangle, on the Table I screen and on a small screen whose last tile
// column and row are clipped: the two tile lists must be equal. Inputs are
// not bounded, so NaN and ±Inf coordinates are fuzzed too.
func FuzzOverlappedTilesMatchesReference(f *testing.F) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	f.Add(float32(3.5), float32(5), float32(1800.25), float32(610), float32(900), float32(339)) // sliver
	f.Add(float32(10), float32(10), float32(110), float32(60), float32(210), float32(110))      // collinear
	f.Add(float32(40), float32(40), float32(40), float32(40), float32(40), float32(40))         // one point
	f.Add(float32(32), float32(0), float32(64), float32(32), float32(32), float32(64))          // on tile edges
	f.Add(float32(0), float32(0), float32(1960), float32(768), float32(0), float32(768))        // screen corners
	f.Add(float32(-1e7), float32(40.5), float32(1e7), float32(47.25), float32(60), float32(90)) // far vertices
	f.Add(float32(-1e7), float32(-1e7), float32(1e7), float32(-1e7), float32(0), float32(1e7))  // covers all
	f.Add(float32(100), float32(100), inf, float32(120), float32(140), float32(300))            // +Inf
	f.Add(-inf, float32(50), float32(300), -inf, float32(200), float32(400))                    // -Inf
	f.Add(float32(100), nan, float32(200), float32(150), float32(120), float32(400))            // NaN
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy float32) {
		p := Primitive{Pos: [3]Vec2{{ax, ay}, {bx, by}, {cx, cy}}}
		checkOverlappedTiles(t, &p)
	})
}
