package geometry

import (
	"fmt"

	"tcor/internal/geom"
)

// Vertex is one input vertex: an object-space position. Its attributes
// (colors, normals, texture coordinates — each a Vec4, 16 bytes, matching
// the paper's PB-Attributes layout) are counted by its Mesh, not stored:
// the Tiling Engine reads only how many a primitive carries.
type Vertex struct {
	Pos geom.Vec3
}

// Mesh is an indexed triangle mesh.
type Mesh struct {
	Vertices []Vertex
	// Indices holds vertex indices, three per triangle.
	Indices []uint32
	// NumAttrs is the number of attributes every vertex carries, and so the
	// attribute count of every primitive the mesh emits.
	NumAttrs uint8
}

// Validate checks the mesh's structural invariants.
func (m *Mesh) Validate() error {
	if len(m.Indices)%3 != 0 {
		return fmt.Errorf("geometry: %d indices is not a multiple of 3", len(m.Indices))
	}
	if m.NumAttrs == 0 {
		return fmt.Errorf("geometry: mesh vertices need at least one attribute")
	}
	if m.NumAttrs > geom.MaxAttributes {
		return fmt.Errorf("geometry: %d attributes exceed the PMD limit %d", m.NumAttrs, geom.MaxAttributes)
	}
	for i, idx := range m.Indices {
		if int(idx) >= len(m.Vertices) {
			return fmt.Errorf("geometry: index %d at %d out of range", idx, i)
		}
	}
	return nil
}

// NumTriangles returns the triangle count.
func (m *Mesh) NumTriangles() int { return len(m.Indices) / 3 }

// Object places a mesh in the world.
type Object struct {
	Mesh      *Mesh
	Transform geom.Mat4 // model matrix
}

// Scene is a 3D scene: a camera plus objects in submission (draw) order.
type Scene struct {
	Camera  Camera
	Objects []Object
}

// Cube returns a unit cube mesh centered at the origin with one color
// attribute and one texture-coordinate attribute per vertex.
func Cube() *Mesh {
	m := &Mesh{NumAttrs: 2}
	for _, z := range []float32{-1, 1} {
		for _, y := range []float32{-1, 1} {
			for _, x := range []float32{-1, 1} {
				m.Vertices = append(m.Vertices, Vertex{Pos: geom.Vec3{X: x, Y: y, Z: z}})
			}
		}
	}
	// 12 triangles; vertex order gives outward-facing CCW winding.
	m.Indices = []uint32{
		0, 2, 1, 1, 2, 3, // z = -1 face
		4, 5, 6, 5, 7, 6, // z = +1 face
		0, 1, 4, 1, 5, 4, // y = -1
		2, 6, 3, 3, 6, 7, // y = +1
		0, 4, 2, 2, 4, 6, // x = -1
		1, 3, 5, 3, 7, 5, // x = +1
	}
	return m
}

// Plane returns a two-triangle rectangle in the XZ plane (a ground plane)
// spanning [-size/2, size/2] on X and Z at the given Y, with a color and a
// UV attribute per vertex.
func Plane(size, y float32) *Mesh {
	h := size / 2
	mk := func(x, z float32) Vertex { return Vertex{Pos: geom.Vec3{X: x, Y: y, Z: z}} }
	return &Mesh{
		Vertices: []Vertex{mk(-h, -h), mk(h, -h), mk(h, h), mk(-h, h)},
		Indices:  []uint32{0, 1, 2, 0, 2, 3},
		NumAttrs: 2,
	}
}
