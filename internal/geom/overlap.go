package geom

// TriangleRectOverlap reports whether the triangle (a, b, c) overlaps the
// rectangle r. It is an exact test built from the separating axis theorem:
// the triangle and the rectangle are disjoint iff one of the rectangle's two
// axes or one of the triangle's three edge normals separates them.
//
// This is the "accurate bounding-box overlap test" the Polygon List Builder
// needs so that primitives are only binned into tiles they truly touch
// (cf. Antochi et al., cited as [2] in the paper).
func TriangleRectOverlap(a, b, c Vec2, r Rect) bool {
	t := newSATTriangle(a, b, c)
	return t.overlaps(r)
}

// satTriangle is the per-triangle half of TriangleRectOverlap: the bounding
// box, the zero-area test and the three edge normals, computed once so that
// one triangle can be tested against many rectangles with the same float32
// expressions.
type satTriangle struct {
	minX, maxX, minY, maxY float32
	// degenerate marks a zero-area triangle: the bbox test is exact enough
	// for binning purposes, so it overlaps whatever its bbox does.
	degenerate bool
	origin     [3]Vec2 // first vertex of each edge
	normal     [3]Vec2 // inward normal of each edge
}

func newSATTriangle(a, b, c Vec2) satTriangle {
	area := b.Sub(a).Cross(c.Sub(a))
	// Edges (a, b), (b, c), (c, a), each with the normal
	// (e0.Y − e1.Y, e1.X − e0.X), turned inward by the winding.
	t := satTriangle{
		minX: min3(a.X, b.X, c.X), maxX: max3(a.X, b.X, c.X),
		minY: min3(a.Y, b.Y, c.Y), maxY: max3(a.Y, b.Y, c.Y),
		degenerate: area == 0,
		origin:     [3]Vec2{a, b, c},
		normal:     [3]Vec2{{a.Y - b.Y, b.X - a.X}, {b.Y - c.Y, c.X - b.X}, {c.Y - a.Y, a.X - c.X}},
	}
	if area < 0 {
		for i := range t.normal {
			t.normal[i] = t.normal[i].Scale(-1)
		}
	}
	return t
}

// overlaps is TriangleRectOverlap against one rectangle.
func (t *satTriangle) overlaps(r Rect) bool {
	// Fast reject: bounding boxes.
	if t.maxX < r.Min.X || t.minX > r.Max.X {
		return false
	}
	if t.maxY < r.Min.Y || t.minY > r.Max.Y {
		return false
	}
	if t.degenerate {
		return true
	}
	for i := range t.normal {
		if t.separates(i, r) {
			return false
		}
	}
	return true
}

// separates reports whether edge i's normal is a separating axis: all
// three triangle vertices are on one side by construction, so the edge
// separates when even the rectangle corner most aligned with the normal
// lies strictly in the negative half-plane.
func (t *satTriangle) separates(i int, r Rect) bool {
	n := t.normal[i]
	corner := Vec2{r.Min.X, r.Min.Y}
	if n.X > 0 {
		corner.X = r.Max.X
	}
	if n.Y > 0 {
		corner.Y = r.Max.Y
	}
	return n.Dot(corner.Sub(t.origin[i])) < 0
}

// PointInTriangle reports whether point p lies inside (or on the border of)
// triangle (a, b, c). Degenerate (zero-area) triangles make the half-plane
// tests vacuous — one of them is identically zero — so the bounding box
// check keeps the function conservative for them: points outside the
// triangle's bbox are never "inside".
func PointInTriangle(p, a, b, c Vec2) bool {
	if p.X < min3(a.X, b.X, c.X) || p.X > max3(a.X, b.X, c.X) ||
		p.Y < min3(a.Y, b.Y, c.Y) || p.Y > max3(a.Y, b.Y, c.Y) {
		return false
	}
	d1 := sign(p, a, b)
	d2 := sign(p, b, c)
	d3 := sign(p, c, a)
	hasNeg := d1 < 0 || d2 < 0 || d3 < 0
	hasPos := d1 > 0 || d2 > 0 || d3 > 0
	return !(hasNeg && hasPos)
}

// sign is the edge function of p against edge (a, b). The conversions round
// each product to float32, which rules out a fused multiply-add, so the
// result is the same on every architecture (and matches the raster
// planner's hoisted copy of this expression).
func sign(p, a, b Vec2) float32 {
	return float32((p.X-b.X)*(a.Y-b.Y)) - float32((a.X-b.X)*(p.Y-b.Y))
}

func min3(a, b, c float32) float32 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func max3(a, b, c float32) float32 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}
