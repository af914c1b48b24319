package raster

import (
	"testing"

	"tcor/internal/geom"
	"tcor/internal/mem"
)

// FuzzPlanTileMatchesReference cross-checks the planner's exact spans
// against the per-quad reference on a fuzzed triangle drawn after a
// fuzzed occluder: planned over every tile of an odd- and an
// even-tile-size screen, and of an odd one with the floor-size texture,
// PlanTile's tallies and its run-length coded tap stream must equal
// refPlanTile's. The first seeds are one triangle of each of
// adversarialFamilies behind an occluder off the screen; the last is an
// occludedPrims pair, an opaque band cutting a blended triangle's spans.
func FuzzPlanTileMatchesReference(f *testing.F) {
	// Each triangle behind an occluder off the screen.
	f.Add(float32(3.5), float32(5), float32(180.25), float32(61), float32(90), float32(33.9), float32(0.5), uint32(7), // sliver
		float32(-100), float32(-100), float32(-90), float32(-100), float32(-100), float32(-90), float32(0), uint32(1))
	f.Add(float32(10), float32(10), float32(11.25), float32(11.25), float32(9.25), float32(9.25), float32(0.5), uint32(11), // collinear
		float32(-100), float32(-100), float32(-90), float32(-100), float32(-100), float32(-90), float32(0), uint32(1))
	f.Add(float32(-1e5), float32(40.5), float32(1e5), float32(47.25), float32(60), float32(90), float32(0.5), uint32(13), // far-vertex
		float32(-100), float32(-100), float32(-90), float32(-100), float32(-100), float32(-90), float32(0), uint32(1))
	f.Add(float32(1), float32(1), float32(81), float32(1), float32(41), float32(41), float32(0.5), uint32(17), // diagonal
		float32(-100), float32(-100), float32(-90), float32(-100), float32(-100), float32(-90), float32(0), uint32(1))
	f.Add(float32(-3), float32(10.5), float32(150), float32(11.9), float32(70), float32(10), float32(0.5), uint32(19), // one row
		float32(-100), float32(-100), float32(-90), float32(-100), float32(-100), float32(-90), float32(0), uint32(1))
	f.Add(float32(20.25), float32(-5), float32(21.5), float32(90), float32(21), float32(40), float32(0.5), uint32(23), // one column
		float32(-100), float32(-100), float32(-90), float32(-100), float32(-100), float32(-90), float32(0), uint32(1))
	// Blended (ID 2) behind an opaque (ID 1) band through its middle.
	f.Add(float32(0.5), float32(20), float32(120), float32(22), float32(60), float32(60), float32(0.5), uint32(2),
		float32(50), float32(0), float32(58), float32(0), float32(54), float32(90), float32(0.1), uint32(1))
	var pipes []*Pipeline
	for _, cfg := range []Config{testConfig(31), testConfig(32), floorTexConfig(31)} {
		p, err := New(cfg, mem.NewCounter(), mem.NewCounter())
		if err != nil {
			f.Fatal(err)
		}
		pipes = append(pipes, p)
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, depth float32, id uint32,
		oax, oay, obx, oby, ocx, ocy, oDepth float32, oID uint32) {
		// Beyond about ±1e18 the edge products overflow float32, and an
		// infinite y term makes an edge value NaN, which is monotone in
		// nothing; scene coordinates never come near.
		bound := func(v float32) float32 {
			if v != v || v > 1e18 || v < -1e18 {
				return 0
			}
			return v
		}
		tri := func(id uint32, depth float32, ax, ay, bx, by, cx, cy float32) geom.Primitive {
			return geom.Primitive{
				ID:    id,
				Pos:   [3]geom.Vec2{{X: bound(ax), Y: bound(ay)}, {X: bound(bx), Y: bound(by)}, {X: bound(cx), Y: bound(cy)}},
				Depth: [3]float32{depth, depth, depth},
			}
		}
		prims := []geom.Primitive{
			tri(oID, oDepth, oax, oay, obx, oby, ocx, ocy),
			tri(id, depth, ax, ay, bx, by, cx, cy),
		}
		for _, p := range pipes {
			checkPlans(t, p, prims)
		}
	})
}
