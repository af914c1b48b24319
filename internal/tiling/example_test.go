package tiling_test

import (
	"fmt"

	"tcor/internal/geom"
	"tcor/internal/tiling"
)

// Bin a single primitive overlapping two tiles and inspect the OPT Numbers
// the Polygon List Builder derives: the first occurrence points at the next
// tile's traversal position, the last carries the "never again" sentinel.
func ExampleBin() {
	screen := geom.Screen{Width: 64, Height: 32, TileSize: 32} // tiles 0 and 1
	trav, _ := tiling.NewTraversal(screen, tiling.OrderScanline)
	prims := []geom.Primitive{{
		ID:       0,
		Pos:      [3]geom.Vec2{{X: 4, Y: 4}, {X: 60, Y: 4}, {X: 4, Y: 28}},
		NumAttrs: 1,
	}}
	b, _ := tiling.Bin(screen, trav, prims)
	for tile := 0; tile < 2; tile++ {
		e := b.Lists[tile][0]
		fmt.Printf("tile %d: prim %d, OPT number %#x\n", tile, e.Prim, e.OPTNum)
	}
	// Output:
	// tile 0: prim 0, OPT number 0x1
	// tile 1: prim 0, OPT number 0xfff
}
