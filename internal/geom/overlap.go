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
	// Fast reject: bounding boxes.
	minX, maxX := min3(a.X, b.X, c.X), max3(a.X, b.X, c.X)
	if maxX < r.Min.X || minX > r.Max.X {
		return false
	}
	minY, maxY := min3(a.Y, b.Y, c.Y), max3(a.Y, b.Y, c.Y)
	if maxY < r.Min.Y || minY > r.Max.Y {
		return false
	}

	// Degenerate (zero-area) triangles: the bbox test above is exact enough
	// for binning purposes; treat as overlapping if bboxes intersect.
	area := b.Sub(a).Cross(c.Sub(a))
	if area == 0 {
		return true
	}

	// Triangle edge normals as separating axes. All three triangle vertices
	// are on one side by construction; check whether the whole rectangle is
	// strictly on the other side.
	edges := [3][2]Vec2{{a, b}, {b, c}, {c, a}}
	for _, e := range edges {
		// Inward normal depends on winding; orient with the triangle area.
		n := Vec2{e[0].Y - e[1].Y, e[1].X - e[0].X}
		if area < 0 {
			n = n.Scale(-1)
		}
		// Rectangle corner most aligned with n. If even that corner is
		// outside (negative half-plane), the edge separates.
		corner := Vec2{r.Min.X, r.Min.Y}
		if n.X > 0 {
			corner.X = r.Max.X
		}
		if n.Y > 0 {
			corner.Y = r.Max.Y
		}
		if n.Dot(corner.Sub(e[0])) < 0 {
			return false
		}
	}
	return true
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
