package geom_test

import (
	"slices"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/workload"
)

// TestOverlappedTilesMatchesReferenceOnSuite compares OverlappedTiles with
// the per-tile oracle on every primitive of every frame of every suite
// scene.
func TestOverlappedTilesMatchesReferenceOnSuite(t *testing.T) {
	screen := geom.DefaultScreen()
	var got, want []geom.TileID
	for _, spec := range workload.Suite() {
		sc, err := workload.Generate(spec, screen)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < sc.NumFrames(); f++ {
			prims := sc.Frame(f).Prims
			for i := range prims {
				got = screen.OverlappedTiles(&prims[i], got[:0])
				want = geom.ReferenceOverlappedTiles(screen, &prims[i], want[:0])
				if !slices.Equal(got, want) {
					t.Fatalf("%s frame %d prim %d %v:\nOverlappedTiles = %v\nreference       = %v",
						spec.Alias, f, i, prims[i].Pos, got, want)
				}
			}
		}
	}
}
