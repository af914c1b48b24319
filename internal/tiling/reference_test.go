package tiling

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/pbuffer"
)

// refTraversal is the comparator construction of NewTraversal: every
// comparison recomputes both tiles' curve codes, ties broken by tile ID.
func refTraversal(screen geom.Screen, order Order) *Traversal {
	n := screen.NumTiles()
	t := &Traversal{Seq: make([]geom.TileID, n), Pos: make([]uint16, n)}
	for i := range t.Seq {
		t.Seq[i] = geom.TileID(i)
	}
	tx := screen.TilesX()
	side := 1
	for side < tx || side < screen.TilesY() {
		side <<= 1
	}
	code := func(id int) uint64 {
		switch order {
		case OrderZ:
			return morton(uint32(id%tx), uint32(id/tx))
		case OrderHilbert:
			return uint64(hilbertD(side, id%tx, id/tx))
		}
		return 0
	}
	sort.Slice(t.Seq, func(a, b int) bool {
		ia, ib := int(t.Seq[a]), int(t.Seq[b])
		if ca, cb := code(ia), code(ib); ca != cb {
			return ca < cb
		}
		return ia < ib
	})
	for p, id := range t.Seq {
		t.Pos[id] = uint16(p)
	}
	return t
}

// TestTraversalMatchesReference checks NewTraversal's key ordering
// against the comparator sort on every order, over 1×1, one-row and
// one-column grids (up to the 4095-tile limit), odd and power-of-two
// grids, and the Table I screen at tile sizes 24 to 64.
func TestTraversalMatchesReference(t *testing.T) {
	grid := func(tx, ty int) geom.Screen { return geom.Screen{Width: 8 * tx, Height: 8 * ty, TileSize: 8} }
	screens := []geom.Screen{
		grid(1, 1), grid(2, 2), grid(1, 7), grid(7, 1), grid(1, 4095), grid(4095, 1),
		grid(3, 5), grid(7, 5), grid(13, 9), grid(65, 63), grid(8, 8), grid(16, 4), grid(4, 32), grid(64, 32),
		{Width: 100, Height: 37, TileSize: 9},
	}
	for ts := 24; ts <= 64; ts++ {
		screens = append(screens, geom.Screen{Width: 1960, Height: 768, TileSize: ts})
	}
	for _, s := range screens {
		for _, order := range []Order{OrderScanline, OrderZ, OrderHilbert} {
			got, err := NewTraversal(s, order)
			if err != nil {
				t.Fatalf("%dx%d tiles, %v: %v", s.TilesX(), s.TilesY(), order, err)
			}
			want := refTraversal(s, order)
			if !slices.Equal(got.Seq, want.Seq) || !slices.Equal(got.Pos, want.Pos) {
				t.Errorf("%dx%d tiles of %d px, %v: traversal differs from the reference", s.TilesX(), s.TilesY(), s.TileSize, order)
			}
		}
	}
}

// refBin is the one-pass Polygon List Builder BinWithOverlap replaced: a
// fresh PrimTiles slice per primitive and tile lists grown by append.
func refBin(screen geom.Screen, trav *Traversal, prims []geom.Primitive, ot OverlapTest) (*Binning, error) {
	if trav.NumTiles() != screen.NumTiles() {
		return nil, fmt.Errorf("tiling: traversal covers %d tiles, screen has %d",
			trav.NumTiles(), screen.NumTiles())
	}
	n := len(prims)
	b := &Binning{
		Screen:    screen,
		Traversal: trav,
		Lists:     make([][]BinEntry, screen.NumTiles()),
		PrimTiles: make([][]uint16, n),
		AttrBase:  make([]uint32, n),
		NumAttrs:  make([]uint8, n),
		FirstUse:  make([]uint16, n),
		LastUse:   make([]uint16, n),
	}
	var tilesBuf []geom.TileID
	var attrCursor uint32
	for i := range prims {
		p := &prims[i]
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if p.ID != uint32(i) {
			return nil, fmt.Errorf("tiling: primitive %d has ID %d; expected program order", i, p.ID)
		}
		b.AttrBase[i] = attrCursor
		b.NumAttrs[i] = p.NumAttrs
		attrCursor += uint32(p.NumAttrs)
		if ot == OverlapBBox {
			tilesBuf = screen.OverlappedTilesBBox(p, tilesBuf[:0])
		} else {
			tilesBuf = screen.OverlappedTiles(p, tilesBuf[:0])
		}
		if len(tilesBuf) == 0 {
			b.FirstUse[i] = pbuffer.MaxOPTNumber
			b.LastUse[i] = pbuffer.MaxOPTNumber
			continue
		}
		pos := make([]uint16, 0, len(tilesBuf))
		for _, t := range tilesBuf {
			pos = append(pos, trav.Pos[t])
		}
		sortU16(pos)
		b.PrimTiles[i] = pos
		b.FirstUse[i] = pos[0]
		b.LastUse[i] = pos[len(pos)-1]
		for k, tp := range pos {
			next := uint16(pbuffer.MaxOPTNumber)
			if k+1 < len(pos) {
				next = pos[k+1]
			}
			tile := trav.Seq[tp]
			if len(b.Lists[tile]) >= pbuffer.MaxPrimsPerTile {
				b.Overflowed++
				continue
			}
			b.Lists[tile] = append(b.Lists[tile], BinEntry{Prim: uint32(i), OPTNum: next})
			b.TotalOverlaps++
		}
	}
	b.TotalAttrs = attrCursor
	return b, nil
}

// checkBin fails t unless BinWithOverlap and refBin return equal
// binnings, or errors with equal messages.
func checkBin(t *testing.T, screen geom.Screen, order Order, prims []geom.Primitive, ot OverlapTest) *Binning {
	t.Helper()
	trav, err := NewTraversal(screen, order)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BinWithOverlap(screen, trav, prims, ot)
	want, wantErr := refBin(screen, trav, prims, ot)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, want %v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v, %v binning of %d primitives differs from the reference", order, ot, len(prims))
	}
	return got
}

// binPrims scatters n triangles of every size around a w×h screen, a
// share of them wholly off it (culled), with 1 to MaxAttributes
// attributes each.
func binPrims(rng *rand.Rand, n int, w, h float32) []geom.Primitive {
	prims := make([]geom.Primitive, n)
	for i := range prims {
		pr := &prims[i]
		pr.ID = uint32(i)
		pr.NumAttrs = uint8(1 + rng.Intn(geom.MaxAttributes))
		a := geom.Vec2{X: rng.Float32()*(w+200) - 100, Y: rng.Float32()*(h+200) - 100}
		spread := float32([]int{4, 30, 150, 2000}[rng.Intn(4)])
		pr.Pos[0] = a
		for v := 1; v < 3; v++ {
			pr.Pos[v] = geom.Vec2{X: a.X + (rng.Float32()*2-1)*spread, Y: a.Y + (rng.Float32()*2-1)*spread}
		}
	}
	return prims
}

// TestBinMatchesReference checks the flat binning against the one-pass
// reference on both overlap tests and every order: random triangles,
// culled ones among them, on the test and Table I screens; more than
// MaxPrimsPerTile primitives in one tile, so its list overflows while
// their other tiles' lists do not; and invalid primitives.
func TestBinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, screen := range []geom.Screen{testScreen(), {Width: 300, Height: 170, TileSize: 24}, geom.DefaultScreen()} {
		prims := binPrims(rng, 600, float32(screen.Width), float32(screen.Height))
		for _, order := range []Order{OrderScanline, OrderZ, OrderHilbert} {
			for _, ot := range []OverlapTest{OverlapExact, OverlapBBox} {
				if b := checkBin(t, screen, order, prims, ot); b.TotalOverlaps == 0 {
					t.Fatal("nothing binned")
				}
			}
		}
	}

	screen := geom.Screen{Width: 128, Height: 96, TileSize: 32}
	n := pbuffer.MaxPrimsPerTile + 37
	prims := make([]geom.Primitive, n)
	for i := range prims {
		x := float32(rng.Intn(110)) // every one covers tile 0's corner pixel
		prims[i] = geom.Primitive{ID: uint32(i), NumAttrs: 1,
			Pos: [3]geom.Vec2{{X: -1, Y: -1}, {X: x + 20, Y: 2}, {X: 2, Y: float32(rng.Intn(90)) + 5}}}
	}
	for _, ot := range []OverlapTest{OverlapExact, OverlapBBox} {
		b := checkBin(t, screen, OrderZ, prims, ot)
		if b.Overflowed == 0 || b.Overflowed >= n {
			t.Fatalf("%v: %d pairs overflowed; the case exercises too little", ot, b.Overflowed)
		}
	}

	bad := binPrims(rng, 20, 96, 96)
	bad[7].NumAttrs = 0
	checkBin(t, testScreen(), OrderZ, bad, OverlapExact)
	bad[7].NumAttrs = 1
	bad[9].ID = 3
	checkBin(t, testScreen(), OrderZ, bad, OverlapExact)
}

// TestBinNeverMarksLiveEntryDead bins on the largest screen
// geom.Screen.Validate accepts, 4095 tiles, whose last traversal position
// is 4094: an entry carries the "never used again" OPT Number exactly
// when its tile is the primitive's last, so the PMD of a primitive binned
// at positions 4093 and 4094 stays live at 4093. A 4096-tile screen, whose
// last position would be the sentinel itself, has no traversal.
func TestBinNeverMarksLiveEntryDead(t *testing.T) {
	if _, err := NewTraversal(geom.Screen{Width: 64 * 8, Height: 64 * 8, TileSize: 8}, OrderZ); err == nil {
		t.Fatal("a 4096-tile screen has a traversal")
	}
	for _, screen := range []geom.Screen{
		{Width: 4095 * 8, Height: 8, TileSize: 8},
		{Width: 65 * 8, Height: 63 * 8, TileSize: 8},
	} {
		w, h := float32(screen.Width), float32(screen.Height)
		prims := []geom.Primitive{
			{Pos: [3]geom.Vec2{{X: -10, Y: -10}, {X: 3 * w, Y: -10}, {X: -10, Y: 3 * h}}}, // the whole screen
			{Pos: [3]geom.Vec2{{X: w - 12, Y: 1}, {X: w - 1, Y: 1}, {X: w - 1, Y: 7}}},    // the last two tiles of row 0
		}
		prims = append(prims, binPrims(rand.New(rand.NewSource(2)), 200, w, h)...)
		for i := range prims {
			prims[i].ID, prims[i].NumAttrs = uint32(i), 1
		}
		for _, order := range []Order{OrderScanline, OrderZ, OrderHilbert} {
			b := checkBin(t, screen, order, prims, OverlapExact)
			for tile, list := range b.Lists {
				p := b.Traversal.Pos[tile]
				for _, e := range list {
					if dead := e.OPTNum == pbuffer.MaxOPTNumber; dead != (p == b.LastUse[e.Prim]) {
						t.Fatalf("%v, %d tiles: primitive %d at position %d (last use %d) carries OPT Number %d",
							order, screen.NumTiles(), e.Prim, p, b.LastUse[e.Prim], e.OPTNum)
					}
				}
			}
			if last := b.Traversal.Seq[screen.NumTiles()-1]; len(b.Lists[last]) == 0 {
				t.Fatalf("%v: nothing binned at the last position", order)
			}
		}
	}
}

// FuzzBinMatchesReference checks the flat binning against the one-pass
// reference on fuzzed triangles: each 13 bytes of data is one triangle
// (three vertices of two int16 coordinates in sixteenths of a pixel, and
// an attribute count, 0 invalid), the list repeated reps times so one
// tile's list can overflow, on a fuzzed screen of at most 34×34 tiles in
// a fuzzed order, with either overlap test.
func FuzzBinMatchesReference(f *testing.F) {
	tri := func(ax, ay, bx, by, cx, cy int16, attrs uint8) []byte {
		var b []byte
		for _, v := range []int16{ax, ay, bx, by, cx, cy} {
			b = binary.LittleEndian.AppendUint16(b, uint16(v))
		}
		return append(b, attrs)
	}
	f.Add(slices.Concat(tri(32, 32, 960, 128, 128, 960, 1), tri(-1600, -1600, 3200, 0, 0, 3200, 4)), uint8(96), uint8(96), uint8(32), uint8(1), false, uint16(0))
	f.Add(tri(16, 16, 320, 16, 16, 320, 2), uint8(150), uint8(100), uint8(24), uint8(2), true, uint16(1100))                                                     // overflow
	f.Add(slices.Concat(tri(-800, -800, -400, -800, -800, -400, 1), tri(48, 48, 64, 48, 48, 0, 3)), uint8(40), uint8(200), uint8(9), uint8(0), false, uint16(3)) // culled
	f.Add(tri(16, 16, 320, 16, 16, 320, 0), uint8(96), uint8(96), uint8(32), uint8(1), false, uint16(0))                                                         // invalid
	f.Fuzz(func(t *testing.T, data []byte, w, h, ts, order uint8, bbox bool, reps uint16) {
		const triBytes = 13
		var tris []geom.Primitive
		for ; len(data) >= triBytes && len(tris) < 16; data = data[triBytes:] {
			var pr geom.Primitive
			for v := range pr.Pos {
				pr.Pos[v] = geom.Vec2{
					X: float32(int16(binary.LittleEndian.Uint16(data[4*v:]))) / 16,
					Y: float32(int16(binary.LittleEndian.Uint16(data[4*v+2:]))) / 16,
				}
			}
			pr.NumAttrs = data[12] % (geom.MaxAttributes + 1)
			tris = append(tris, pr)
		}
		if len(tris) == 0 {
			return
		}
		n := len(tris) * (1 + int(reps)%1100)
		n = min(n, max(len(tris), 2200))
		prims := make([]geom.Primitive, n)
		for i := range prims {
			prims[i] = tris[i%len(tris)]
			prims[i].ID = uint32(i)
		}
		screen := geom.Screen{Width: 16 + int(w), Height: 16 + int(h), TileSize: 8 + int(ts)%32}
		ot := OverlapExact
		if bbox {
			ot = OverlapBBox
		}
		checkBin(t, screen, Order(order%3), prims, ot)
	})
}
