package raster

import (
	"testing"

	"tcor/internal/geom"
	"tcor/internal/mem"
)

// FuzzPlanTileMatchesReference cross-checks the planner's exact spans
// against the per-quad reference on one fuzzed triangle: planned over every
// tile of an odd- and an even-tile-size screen, and of an odd one with the
// floor-size texture, PlanTile's tallies and its run-length coded tap
// stream must equal refPlanTile's. The seeds are one triangle of each of
// adversarialFamilies.
func FuzzPlanTileMatchesReference(f *testing.F) {
	f.Add(float32(3.5), float32(5), float32(180.25), float32(61), float32(90), float32(33.9), float32(0.5), uint32(7))      // sliver
	f.Add(float32(10), float32(10), float32(11.25), float32(11.25), float32(9.25), float32(9.25), float32(0.5), uint32(11)) // collinear
	f.Add(float32(-1e5), float32(40.5), float32(1e5), float32(47.25), float32(60), float32(90), float32(0.5), uint32(13))   // far-vertex
	f.Add(float32(1), float32(1), float32(81), float32(1), float32(41), float32(41), float32(0.5), uint32(17))              // diagonal
	f.Add(float32(-3), float32(10.5), float32(150), float32(11.9), float32(70), float32(10), float32(0.5), uint32(19))      // one row
	f.Add(float32(20.25), float32(-5), float32(21.5), float32(90), float32(21), float32(40), float32(0.5), uint32(23))      // one column
	var pipes []*Pipeline
	for _, cfg := range []Config{testConfig(31), testConfig(32), floorTexConfig(31)} {
		p, err := New(cfg, mem.NewCounter(), mem.NewCounter())
		if err != nil {
			f.Fatal(err)
		}
		pipes = append(pipes, p)
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, depth float32, id uint32) {
		// Beyond about ±1e18 the edge products overflow float32, and an
		// infinite y term makes an edge value NaN, which is monotone in
		// nothing; scene coordinates never come near.
		bound := func(v float32) float32 {
			if v != v || v > 1e18 || v < -1e18 {
				return 0
			}
			return v
		}
		prims := []geom.Primitive{{
			ID:    id,
			Pos:   [3]geom.Vec2{{X: bound(ax), Y: bound(ay)}, {X: bound(bx), Y: bound(by)}, {X: bound(cx), Y: bound(cy)}},
			Depth: [3]float32{depth, depth, depth},
		}}
		for _, p := range pipes {
			checkPlans(t, p, prims)
		}
	})
}
