package geom

import "fmt"

// MaxAttributes is the largest number of attributes a primitive may carry.
// The PMD encodes the attribute count in 4 bits (paper Fig. 3/6), so the
// count is limited to 15.
const MaxAttributes = 15

// Primitive is an assembled triangle as it leaves the Primitive Assembly
// stage and enters the Tiling Engine. ID is assigned in program order and is
// also used (scaled) as the address of its first attribute in PB-Attributes.
// The Tiling Engine reads only how many 48-byte PB-Attributes records a
// primitive spans (the PMD's 4-bit count, paper Figs. 3/4/6), never their
// contents, so a primitive carries the count and no attribute values.
type Primitive struct {
	ID       uint32
	Pos      [3]Vec2 // screen-space vertex positions, pixels
	Depth    [3]float32
	NumAttrs uint8
}

// Validate reports whether the primitive satisfies the hardware encoding
// limits (non-zero attribute count that fits the 4-bit PMD field).
func (p *Primitive) Validate() error {
	if p.NumAttrs == 0 {
		return fmt.Errorf("geom: primitive %d has no attributes", p.ID)
	}
	if p.NumAttrs > MaxAttributes {
		return fmt.Errorf("geom: primitive %d has %d attributes, max %d",
			p.ID, p.NumAttrs, MaxAttributes)
	}
	return nil
}

// BBox returns the screen-space bounding box of the primitive.
func (p *Primitive) BBox() Rect {
	r := Rect{
		Min: p.Pos[0],
		Max: p.Pos[0],
	}
	for _, v := range p.Pos[1:] {
		if v.X < r.Min.X {
			r.Min.X = v.X
		}
		if v.Y < r.Min.Y {
			r.Min.Y = v.Y
		}
		if v.X > r.Max.X {
			r.Max.X = v.X
		}
		if v.Y > r.Max.Y {
			r.Max.Y = v.Y
		}
	}
	return r
}

// Area returns the (positive) screen-space area of the triangle in pixels².
func (p *Primitive) Area() float32 {
	a := p.Pos[1].Sub(p.Pos[0])
	b := p.Pos[2].Sub(p.Pos[0])
	c := a.Cross(b) / 2
	if c < 0 {
		return -c
	}
	return c
}

// Rect is an axis-aligned rectangle, Min inclusive, Max exclusive for
// coverage purposes.
type Rect struct {
	Min, Max Vec2
}

// Intersects reports whether r and s overlap with non-zero area or touch.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Contains reports whether point v lies inside r (Min inclusive, Max
// inclusive; tiles clip exactly at their borders).
func (r Rect) Contains(v Vec2) bool {
	return v.X >= r.Min.X && v.X <= r.Max.X && v.Y >= r.Min.Y && v.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float32 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float32 { return r.Max.Y - r.Min.Y }
