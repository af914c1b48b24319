package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVec2Ops(t *testing.T) {
	a := Vec2{1, 2}
	b := Vec2{3, -4}
	if got := a.Add(b); got != (Vec2{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec2{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec2{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != 1*(-4)-2*3 {
		t.Errorf("Cross = %v", got)
	}
	if got := (Vec2{3, 4}).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if got := a.Cross(b); got != (Vec3{0, 0, 1}) {
		t.Errorf("Cross = %v", got)
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("Add/Sub roundtrip = %v", got)
	}
	n := (Vec3{0, 0, 5}).Normalize()
	if n != (Vec3{0, 0, 1}) {
		t.Errorf("Normalize = %v", n)
	}
	if (Vec3{}).Normalize() != (Vec3{}) {
		t.Error("Normalize of zero vector should be zero")
	}
}

func TestVec4PerspectiveDivide(t *testing.T) {
	v := Vec4{2, 4, 6, 2}
	got := v.PerspectiveDivide()
	want := Vec4{1, 2, 3, 2}
	if got != want {
		t.Errorf("PerspectiveDivide = %v, want %v", got, want)
	}
	z := Vec4{1, 2, 3, 0}
	if z.PerspectiveDivide() != z {
		t.Error("PerspectiveDivide with W=0 should be identity")
	}
}

func TestMat4Identity(t *testing.T) {
	v := Vec4{1, 2, 3, 4}
	if got := Identity().Apply(v); got != v {
		t.Errorf("Identity.Apply = %v", got)
	}
	m := Translate(10, 20, 30)
	got := m.Apply(Vec4{1, 1, 1, 1})
	want := Vec4{11, 21, 31, 1}
	if got != want {
		t.Errorf("Translate.Apply = %v, want %v", got, want)
	}
}

func TestMat4MulAssociatesWithApply(t *testing.T) {
	m := Translate(1, 2, 3)
	n := ScaleUniform(2)
	v := Vec4{1, 1, 1, 1}
	// (m*n)(v) == m(n(v))
	lhs := m.Mul(n).Apply(v)
	rhs := m.Apply(n.Apply(v))
	if lhs != rhs {
		t.Errorf("(m*n)(v)=%v, m(n(v))=%v", lhs, rhs)
	}
}

func TestRotateZ(t *testing.T) {
	m := RotateZ(math.Pi / 2)
	got := m.Apply(Vec4{1, 0, 0, 1})
	if math.Abs(float64(got.X)) > 1e-6 || math.Abs(float64(got.Y-1)) > 1e-6 {
		t.Errorf("RotateZ(pi/2)(1,0) = %v, want (0,1)", got)
	}
}

func TestPrimitiveBBoxAndArea(t *testing.T) {
	p := &Primitive{
		Pos: [3]Vec2{{0, 0}, {10, 0}, {0, 10}},
	}
	bb := p.BBox()
	if bb.Min != (Vec2{0, 0}) || bb.Max != (Vec2{10, 10}) {
		t.Errorf("BBox = %v", bb)
	}
	if got := p.Area(); got != 50 {
		t.Errorf("Area = %v, want 50", got)
	}
	// Reverse winding must give the same positive area.
	q := &Primitive{Pos: [3]Vec2{{0, 0}, {0, 10}, {10, 0}}}
	if got := q.Area(); got != 50 {
		t.Errorf("Area (reverse winding) = %v, want 50", got)
	}
}

func TestPrimitiveValidate(t *testing.T) {
	p := &Primitive{ID: 1}
	if err := p.Validate(); err == nil {
		t.Error("expected error for 0 attributes")
	}
	p.NumAttrs = MaxAttributes + 1
	if err := p.Validate(); err == nil {
		t.Error("expected error for too many attributes")
	}
	p.NumAttrs = 3
	if err := p.Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestTriangleRectOverlapBasic(t *testing.T) {
	r := Rect{Min: Vec2{0, 0}, Max: Vec2{32, 32}}
	cases := []struct {
		name    string
		a, b, c Vec2
		want    bool
	}{
		{"inside", Vec2{5, 5}, Vec2{10, 5}, Vec2{5, 10}, true},
		{"covering", Vec2{-100, -100}, Vec2{200, -100}, Vec2{-100, 200}, true},
		{"outside right", Vec2{50, 5}, Vec2{60, 5}, Vec2{50, 15}, false},
		{"bbox overlaps but triangle misses corner", Vec2{50, 20}, Vec2{20, 50}, Vec2{70, 70}, false},
		{"edge touches", Vec2{32, 0}, Vec2{64, 0}, Vec2{32, 32}, true},
		{"degenerate inside", Vec2{5, 5}, Vec2{10, 10}, Vec2{15, 15}, true},
	}
	for _, c := range cases {
		if got := TriangleRectOverlap(c.a, c.b, c.c, r); got != c.want {
			t.Errorf("%s: overlap = %v, want %v", c.name, got, c.want)
		}
	}
}

// Property: the exact overlap test never reports overlap when bboxes are
// disjoint, and always reports overlap when a triangle vertex is inside the
// rectangle.
func TestTriangleRectOverlapProperties(t *testing.T) {
	r := Rect{Min: Vec2{10, 10}, Max: Vec2{20, 20}}
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Vec2{float32(ax), float32(ay)}
		b := Vec2{float32(bx), float32(by)}
		c := Vec2{float32(cx), float32(cy)}
		got := TriangleRectOverlap(a, b, c, r)
		tri := &Primitive{Pos: [3]Vec2{a, b, c}}
		if !tri.BBox().Intersects(r) && got {
			return false // overlap without bbox intersection: impossible
		}
		vertexInside := r.Contains(a) || r.Contains(b) || r.Contains(c)
		if vertexInside && !got {
			return false // vertex in rect must overlap
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: overlap agrees with a dense point-sampling oracle for
// non-degenerate triangles (sampling can only prove overlap, never absence,
// so we check one direction).
func TestTriangleRectOverlapSamplingOracle(t *testing.T) {
	r := Rect{Min: Vec2{8, 8}, Max: Vec2{24, 24}}
	f := func(ax, ay, bx, by, cx, cy uint8) bool {
		a := Vec2{float32(ax % 40), float32(ay % 40)}
		b := Vec2{float32(bx % 40), float32(by % 40)}
		c := Vec2{float32(cx % 40), float32(cy % 40)}
		got := TriangleRectOverlap(a, b, c, r)
		if got {
			return true // cannot disprove by sampling
		}
		// If the test says no overlap, no sampled rect point may be inside
		// the triangle.
		for x := r.Min.X; x <= r.Max.X; x += 2 {
			for y := r.Min.Y; y <= r.Max.Y; y += 2 {
				if PointInTriangle(Vec2{x, y}, a, b, c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestScreenTiles(t *testing.T) {
	s := DefaultScreen()
	if err := s.Validate(); err != nil {
		t.Fatalf("default screen invalid: %v", err)
	}
	if s.TilesX() != 62 { // ceil(1960/32) = 62
		t.Errorf("TilesX = %d, want 62", s.TilesX())
	}
	if s.TilesY() != 24 {
		t.Errorf("TilesY = %d, want 24", s.TilesY())
	}
	if s.NumTiles() != 62*24 {
		t.Errorf("NumTiles = %d", s.NumTiles())
	}
	if got := s.TileAt(0, 0); got != 0 {
		t.Errorf("TileAt(0,0) = %d", got)
	}
	if got := s.TileAt(33, 33); got != TileID(62+1) {
		t.Errorf("TileAt(33,33) = %d, want %d", got, 62+1)
	}
	tx, ty := s.TileCoord(TileID(63))
	if tx != 1 || ty != 1 {
		t.Errorf("TileCoord(63) = (%d,%d)", tx, ty)
	}
	// Boundary tile rect is clipped to the screen.
	last := TileID(s.NumTiles() - 1)
	r := s.TileRect(last)
	if r.Max.X != float32(s.Width) || r.Max.Y != float32(s.Height) {
		t.Errorf("last tile rect %v should clip to screen", r)
	}
}

func TestScreenValidate(t *testing.T) {
	bad := []Screen{
		{Width: 0, Height: 100, TileSize: 32},
		{Width: 100, Height: 0, TileSize: 32},
		{Width: 100, Height: 100, TileSize: 0},
		{Width: 1 << 14, Height: 1 << 14, TileSize: 8}, // too many tiles for 12-bit IDs
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestOverlappedTiles(t *testing.T) {
	s := Screen{Width: 96, Height: 96, TileSize: 32} // 3x3 tiles
	// A triangle fully inside tile 4 (center).
	p := &Primitive{Pos: [3]Vec2{{40, 40}, {50, 40}, {40, 50}}}
	got := s.OverlappedTiles(p, nil)
	if len(got) != 1 || got[0] != 4 {
		t.Errorf("OverlappedTiles = %v, want [4]", got)
	}
	// A triangle covering the whole screen overlaps all 9 tiles.
	q := &Primitive{Pos: [3]Vec2{{-200, -200}, {500, -200}, {-200, 500}}}
	got = s.OverlappedTiles(q, nil)
	if len(got) != 9 {
		t.Errorf("full-screen triangle overlaps %d tiles, want 9", len(got))
	}
	// Row-major ordering.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("tiles not in row-major order: %v", got)
		}
	}
	// Off-screen triangle overlaps nothing.
	o := &Primitive{Pos: [3]Vec2{{-50, -50}, {-10, -50}, {-50, -10}}}
	if got := s.OverlappedTiles(o, nil); len(got) != 0 {
		t.Errorf("off-screen triangle overlaps %v", got)
	}
}

// Property: every tile reported by OverlappedTiles intersects the
// primitive's bounding box, and the tile containing each on-screen vertex is
// reported.
func TestOverlappedTilesProperty(t *testing.T) {
	s := Screen{Width: 128, Height: 128, TileSize: 32}
	f := func(ax, ay, bx, by, cx, cy uint8) bool {
		a := Vec2{float32(ax % 128), float32(ay % 128)}
		b := Vec2{float32(bx % 128), float32(by % 128)}
		c := Vec2{float32(cx % 128), float32(cy % 128)}
		p := &Primitive{Pos: [3]Vec2{a, b, c}}
		tiles := s.OverlappedTiles(p, nil)
		set := map[TileID]bool{}
		bb := p.BBox()
		for _, id := range tiles {
			set[id] = true
			if !s.TileRect(id).Intersects(bb) {
				return false
			}
		}
		for _, v := range p.Pos {
			// Clamp vertices on the far edge into the last tile.
			x := clampInt(int(v.X), 0, s.Width-1)
			y := clampInt(int(v.Y), 0, s.Height-1)
			if !set[s.TileAt(x, y)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
