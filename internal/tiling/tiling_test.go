package tiling

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tcor/internal/geom"
	"tcor/internal/memmap"
	"tcor/internal/pbuffer"
	"tcor/internal/workload"
)

func testScreen() geom.Screen {
	return geom.Screen{Width: 96, Height: 96, TileSize: 32} // 3x3 tiles
}

func TestTraversalScanline(t *testing.T) {
	trav, err := NewTraversal(testScreen(), OrderScanline)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range trav.Seq {
		if int(id) != i {
			t.Fatalf("scanline Seq[%d] = %d", i, id)
		}
		if int(trav.Pos[id]) != i {
			t.Fatalf("Pos inverse broken at %d", i)
		}
	}
}

func TestTraversalZOrderIsPermutation(t *testing.T) {
	screen := geom.DefaultScreen() // 62x24, not powers of two
	trav, err := NewTraversal(screen, OrderZ)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, screen.NumTiles())
	for _, id := range trav.Seq {
		if seen[id] {
			t.Fatalf("tile %d visited twice", id)
		}
		seen[id] = true
	}
	for id, s := range seen {
		if !s {
			t.Fatalf("tile %d never visited", id)
		}
	}
	// Pos must invert Seq.
	for p, id := range trav.Seq {
		if int(trav.Pos[id]) != p {
			t.Fatalf("Pos[%d] = %d, want %d", id, trav.Pos[id], p)
		}
	}
}

func TestTraversalZOrderLocality(t *testing.T) {
	// Z-order on a 4x4 grid starts 0,1,4,5 (row-major IDs).
	screen := geom.Screen{Width: 128, Height: 128, TileSize: 32}
	trav, err := NewTraversal(screen, OrderZ)
	if err != nil {
		t.Fatal(err)
	}
	want := []geom.TileID{0, 1, 4, 5, 2, 3, 6, 7}
	for i, w := range want {
		if trav.Seq[i] != w {
			t.Fatalf("z-order Seq[%d] = %d, want %d (full: %v)", i, trav.Seq[i], w, trav.Seq[:8])
		}
	}
}

func TestTraversalErrors(t *testing.T) {
	if _, err := NewTraversal(geom.Screen{}, OrderZ); err == nil {
		t.Error("expected error for invalid screen")
	}
	if _, err := NewTraversal(testScreen(), Order(99)); err == nil {
		t.Error("expected error for unknown order")
	}
	if Order(99).String() == "" || OrderZ.String() != "z-order" || OrderScanline.String() != "scanline" {
		t.Error("order names")
	}
}

// paperFrame reproduces the 3-primitive, 9-tile example of paper Fig. 9:
// prim 0 covers tiles 0,1,3; prim 1 covers tiles 2,5; prim 2 covers tiles
// 3,4,6,7,8 (approximately — the figure shows prim0 top-left L, prim1 right
// column top, prim2 bottom region).
func paperFrame() (geom.Screen, []geom.Primitive) {
	screen := testScreen()
	mk := func(id uint32, a, b, c geom.Vec2) geom.Primitive {
		return geom.Primitive{ID: id, Pos: [3]geom.Vec2{a, b, c}, NumAttrs: 1}
	}
	return screen, []geom.Primitive{
		// Tiles are 32px. Prim 0: tiles 0,1,3 (an L in the top-left).
		mk(0, geom.Vec2{X: 2, Y: 2}, geom.Vec2{X: 60, Y: 8}, geom.Vec2{X: 8, Y: 60}),
		// Prim 1: tiles 2,5 (right column, top two).
		mk(1, geom.Vec2{X: 70, Y: 2}, geom.Vec2{X: 90, Y: 60}, geom.Vec2{X: 68, Y: 60}),
		// Prim 2: tiles 3..8 area (bottom two rows).
		mk(2, geom.Vec2{X: 2, Y: 40}, geom.Vec2{X: 90, Y: 90}, geom.Vec2{X: 2, Y: 90}),
	}
}

func TestBinComputesOPTNumbers(t *testing.T) {
	screen, prims := paperFrame()
	trav, _ := NewTraversal(screen, OrderScanline)
	b, err := Bin(screen, trav, prims)
	if err != nil {
		t.Fatal(err)
	}
	// Every list entry's OPT number is either MaxOPTNumber or a later
	// traversal position that really contains the primitive.
	for tile := range b.Lists {
		pos := trav.Pos[geom.TileID(tile)]
		for _, e := range b.Lists[tile] {
			if e.OPTNum == pbuffer.MaxOPTNumber {
				continue
			}
			if e.OPTNum <= pos {
				t.Fatalf("tile %d prim %d: OPT number %d not in the future (pos %d)",
					tile, e.Prim, e.OPTNum, pos)
			}
			found := false
			for _, q := range b.Lists[trav.Seq[e.OPTNum]] {
				if q.Prim == e.Prim {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("tile %d prim %d: OPT number %d does not contain the primitive",
					tile, e.Prim, e.OPTNum)
			}
		}
	}
	// First/last use bracket all occurrences.
	for p := range prims {
		tiles := b.PrimTiles[p]
		if len(tiles) == 0 {
			t.Fatalf("prim %d overlaps nothing", p)
		}
		if b.FirstUse[p] != tiles[0] || b.LastUse[p] != tiles[len(tiles)-1] {
			t.Fatalf("prim %d first/last = %d/%d, tiles %v",
				p, b.FirstUse[p], b.LastUse[p], tiles)
		}
	}
	// Prim 0 in its last tile must carry the sentinel.
	last := b.LastUse[0]
	found := false
	for _, e := range b.Lists[trav.Seq[last]] {
		if e.Prim == 0 {
			found = true
			if e.OPTNum != pbuffer.MaxOPTNumber {
				t.Errorf("last occurrence OPT number = %d, want sentinel", e.OPTNum)
			}
		}
	}
	if !found {
		t.Error("prim 0 missing from its last tile")
	}
}

func TestBinRejectsBadPrims(t *testing.T) {
	screen := testScreen()
	trav, _ := NewTraversal(screen, OrderScanline)
	// Wrong ID order.
	prims := []geom.Primitive{{ID: 5, NumAttrs: 1,
		Pos: [3]geom.Vec2{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 2}}}}
	if _, err := Bin(screen, trav, prims); err == nil {
		t.Error("expected error for out-of-order IDs")
	}
	// No attributes.
	prims = []geom.Primitive{{ID: 0, Pos: [3]geom.Vec2{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 2}}}}
	if _, err := Bin(screen, trav, prims); err == nil {
		t.Error("expected error for attribute-less primitive")
	}
	// Mismatched traversal.
	other, _ := NewTraversal(geom.Screen{Width: 64, Height: 64, TileSize: 32}, OrderScanline)
	prims = []geom.Primitive{{ID: 0, NumAttrs: 1,
		Pos: [3]geom.Vec2{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 2}}}}
	if _, err := Bin(screen, other, prims); err == nil {
		t.Error("expected error for traversal/screen mismatch")
	}
}

func TestBinAttrBasesAreCumulative(t *testing.T) {
	screen, prims := paperFrame()
	prims[1].NumAttrs = 3
	trav, _ := NewTraversal(screen, OrderZ)
	b, err := Bin(screen, trav, prims)
	if err != nil {
		t.Fatal(err)
	}
	if b.AttrBase[0] != 0 || b.AttrBase[1] != 1 || b.AttrBase[2] != 4 {
		t.Errorf("attr bases = %v", b.AttrBase[:3])
	}
	if b.TotalAttrs != 5 {
		t.Errorf("total attrs = %d", b.TotalAttrs)
	}
}

func TestReplayEventCounts(t *testing.T) {
	screen, prims := paperFrame()
	trav, _ := NewTraversal(screen, OrderScanline)
	b, err := Bin(screen, trav, prims)
	if err != nil {
		t.Fatal(err)
	}
	lists := pbuffer.NewInterleavedListLayout(screen.NumTiles())
	attrs := pbuffer.NewAttrLayout()
	var c CountingHandler
	Replay(b, lists, attrs, &c)
	if c.ListWrites != b.TotalOverlaps {
		t.Errorf("list writes = %d, want %d", c.ListWrites, b.TotalOverlaps)
	}
	if c.AttrWrites != len(prims) {
		t.Errorf("attr writes = %d, want %d", c.AttrWrites, len(prims))
	}
	if c.PrimReads != b.TotalOverlaps {
		t.Errorf("prim reads = %d, want %d", c.PrimReads, b.TotalOverlaps)
	}
	if c.TilesDone != screen.NumTiles() {
		t.Errorf("tiles done = %d", c.TilesDone)
	}
	if c.AttrBlockWrites != int(b.TotalAttrs) {
		t.Errorf("attr block writes = %d, want %d", c.AttrBlockWrites, b.TotalAttrs)
	}
	// Each tile's list of n PMDs needs ceil(n/16) block reads.
	wantListReads := 0
	for tile := range b.Lists {
		wantListReads += b.ListBlocks(geom.TileID(tile))
	}
	if c.ListReads != wantListReads {
		t.Errorf("list reads = %d, want %d", c.ListReads, wantListReads)
	}
}

// orderCheck asserts the stream's phase and ordering invariants.
type orderCheck struct {
	CountingHandler
	t           *testing.T
	readPhase   bool
	lastTilePos int
}

func (o *orderCheck) ListWrite(addr uint64, tile geom.TileID) {
	if o.readPhase {
		o.t.Error("PLB write after TF read began")
	}
	if memmap.RegionOf(addr) != memmap.RegionPBLists {
		o.t.Errorf("list write to %v region", memmap.RegionOf(addr))
	}
	o.CountingHandler.ListWrite(addr, tile)
}

func (o *orderCheck) ListRead(addr uint64, tile geom.TileID) {
	o.readPhase = true
	o.CountingHandler.ListRead(addr, tile)
}

func (o *orderCheck) PrimRead(prim uint32, n uint8, opt, last uint16, blocks []uint64, tile geom.TileID) {
	o.readPhase = true
	for _, a := range blocks {
		if memmap.RegionOf(a) != memmap.RegionPBAttributes {
			o.t.Errorf("attr block in %v region", memmap.RegionOf(a))
		}
	}
	o.CountingHandler.PrimRead(prim, n, opt, last, blocks, tile)
}

func (o *orderCheck) TileDone(tile geom.TileID, pos uint16) {
	if int(pos) != o.lastTilePos {
		o.t.Errorf("TileDone pos %d, want %d (strict traversal order)", pos, o.lastTilePos)
	}
	o.lastTilePos++
	o.CountingHandler.TileDone(tile, pos)
}

func TestReplayPhaseAndRegionInvariants(t *testing.T) {
	spec, _ := workload.ByAlias("CCS")
	spec.Frames = 1
	screen := geom.DefaultScreen()
	sc, err := workload.Generate(spec, screen)
	if err != nil {
		t.Fatal(err)
	}
	trav, _ := NewTraversal(screen, OrderZ)
	b, err := Bin(screen, trav, sc.Frame(0).Prims)
	if err != nil {
		t.Fatal(err)
	}
	o := &orderCheck{t: t}
	Replay(b, pbuffer.NewInterleavedListLayout(screen.NumTiles()), pbuffer.NewAttrLayout(), o)
	if o.TilesDone != screen.NumTiles() {
		t.Errorf("tiles done = %d", o.TilesDone)
	}
	if o.PrimReads == 0 || o.ListWrites == 0 {
		t.Error("degenerate replay")
	}
}

// Property: on random small frames, every PMD's OPT number chain walks the
// primitive's tile positions exactly.
func TestBinOPTChainProperty(t *testing.T) {
	screen := testScreen()
	trav, _ := NewTraversal(screen, OrderScanline)
	f := func(seeds []uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 12 {
			seeds = seeds[:12]
		}
		prims := make([]geom.Primitive, len(seeds))
		for i, s := range seeds {
			x := float32(s % 90)
			y := float32((s / 3) % 90)
			prims[i] = geom.Primitive{
				ID:       uint32(i),
				Pos:      [3]geom.Vec2{{X: x, Y: y}, {X: x + 20, Y: y}, {X: x, Y: y + 20}},
				NumAttrs: 1,
			}
		}
		b, err := Bin(screen, trav, prims)
		if err != nil {
			return false
		}
		for p := range prims {
			positions := b.PrimTiles[p]
			// Follow the OPT chain from the first occurrence.
			for k, pos := range positions {
				tile := trav.Seq[pos]
				var entry *BinEntry
				for i := range b.Lists[tile] {
					if b.Lists[tile][i].Prim == uint32(p) {
						entry = &b.Lists[tile][i]
						break
					}
				}
				if entry == nil {
					return false
				}
				want := uint16(pbuffer.MaxOPTNumber)
				if k+1 < len(positions) {
					want = positions[k+1]
				}
				if entry.OPTNum != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestBinOverflowCap(t *testing.T) {
	// More than MaxPrimsPerTile primitives all in one tile: list is capped.
	screen := testScreen()
	trav, _ := NewTraversal(screen, OrderScanline)
	n := pbuffer.MaxPrimsPerTile + 10
	prims := make([]geom.Primitive, n)
	for i := range prims {
		prims[i] = geom.Primitive{
			ID:       uint32(i),
			Pos:      [3]geom.Vec2{{X: 5, Y: 5}, {X: 10, Y: 5}, {X: 5, Y: 10}},
			NumAttrs: 1,
		}
	}
	b, err := Bin(screen, trav, prims)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Lists[0]) != pbuffer.MaxPrimsPerTile {
		t.Errorf("list length = %d, want cap %d", len(b.Lists[0]), pbuffer.MaxPrimsPerTile)
	}
	if b.Overflowed != 10 {
		t.Errorf("overflowed = %d, want 10", b.Overflowed)
	}
	// Replay must agree with the capped lists.
	var c CountingHandler
	Replay(b, pbuffer.NewBaselineListLayout(screen.NumTiles()), pbuffer.NewAttrLayout(), &c)
	if c.ListWrites != pbuffer.MaxPrimsPerTile {
		t.Errorf("replayed %d list writes, want %d", c.ListWrites, pbuffer.MaxPrimsPerTile)
	}
}

func TestBBoxBinningIsSupersetOfExact(t *testing.T) {
	screen, prims := paperFrame()
	trav, _ := NewTraversal(screen, OrderScanline)
	exact, err := BinWithOverlap(screen, trav, prims, OverlapExact)
	if err != nil {
		t.Fatal(err)
	}
	bbox, err := BinWithOverlap(screen, trav, prims, OverlapBBox)
	if err != nil {
		t.Fatal(err)
	}
	if bbox.TotalOverlaps < exact.TotalOverlaps {
		t.Fatalf("bbox %d overlaps < exact %d", bbox.TotalOverlaps, exact.TotalOverlaps)
	}
	// Every exact (prim, tile) pair must appear under bbox binning too.
	for tile := range exact.Lists {
		for _, e := range exact.Lists[tile] {
			found := false
			for _, q := range bbox.Lists[tile] {
				if q.Prim == e.Prim {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("bbox binning lost prim %d in tile %d", e.Prim, tile)
			}
		}
	}
}

func TestTraversalHilbert(t *testing.T) {
	// Permutation property on the paper's non-power-of-two grid.
	screen := geom.DefaultScreen()
	trav, err := NewTraversal(screen, OrderHilbert)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, screen.NumTiles())
	for _, id := range trav.Seq {
		if seen[id] {
			t.Fatalf("tile %d visited twice", id)
		}
		seen[id] = true
	}
	for p, id := range trav.Seq {
		if int(trav.Pos[id]) != p {
			t.Fatal("Pos inverse broken")
		}
	}
	if OrderHilbert.String() != "hilbert" {
		t.Error("name")
	}
	// Locality: on a power-of-two square grid every consecutive pair of
	// tiles is 4-adjacent (the Hilbert property; Z-order violates this).
	sq := geom.Screen{Width: 256, Height: 256, TileSize: 32} // 8x8
	h, _ := NewTraversal(sq, OrderHilbert)
	for i := 1; i < len(h.Seq); i++ {
		ax, ay := sq.TileCoord(h.Seq[i-1])
		bx, by := sq.TileCoord(h.Seq[i])
		manhattan := abs(ax-bx) + abs(ay-by)
		if manhattan != 1 {
			t.Fatalf("hilbert step %d: tiles %d->%d are %d apart", i, h.Seq[i-1], h.Seq[i], manhattan)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
