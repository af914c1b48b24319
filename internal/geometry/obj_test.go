package geometry

import (
	"math"
	"strings"
	"testing"

	"tcor/internal/geom"
)

const objCubeSrc = `
# a unit quad and a triangle
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
vt 0 0
vt 1 0
vt 1 1
vt 0 1
f 1/1 2/2 3/3 4/4
f 1 2 4
`

func TestParseOBJBasic(t *testing.T) {
	m, err := ParseOBJ(strings.NewReader(objCubeSrc))
	if err != nil {
		t.Fatal(err)
	}
	// The quad fan-triangulates into 2, plus the bare triangle = 3.
	if m.NumTriangles() != 3 {
		t.Errorf("triangles = %d, want 3", m.NumTriangles())
	}
	// Position-only and position/uv references of vertex 1 are distinct
	// unified vertices (different UV), so 4 (with uv) + up to 3 (without).
	if len(m.Vertices) < 4 {
		t.Errorf("vertices = %d", len(m.Vertices))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every vertex counts a color and a UV.
	if m.NumAttrs != 2 {
		t.Errorf("attributes = %d, want 2", m.NumAttrs)
	}
}

func TestParseOBJNegativeIndices(t *testing.T) {
	src := "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
	m, err := ParseOBJ(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() != 1 {
		t.Errorf("triangles = %d", m.NumTriangles())
	}
}

func TestParseOBJIgnoresNormalsAndGroups(t *testing.T) {
	src := `
o thing
g part
s off
usemtl steel
mtllib things.mtl
v 0 0 0
v 1 0 0
v 0 1 0
vn 0 0 1
f 1//1 2//1 3//1
`
	m, err := ParseOBJ(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() != 1 {
		t.Errorf("triangles = %d", m.NumTriangles())
	}
}

func TestParseOBJErrors(t *testing.T) {
	cases := []string{
		"v 1 2\n",            // short vertex
		"vt 1\n",             // short texcoord
		"f 1 2\n",            // short face
		"v 0 0 0\nf 1 2 3\n", // out-of-range index
		"v a b c\n",          // bad float
		"banana 1 2 3\n",     // unknown record
		"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/9 2/9 3/9\n", // bad uv index
		// uv index past the texcoords that were read
		"v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvt 1 0\nf 1/1 2/2 3/3\n",
		"v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvt 1 0\nf 1/1 2/2 3/-3\n",
	}
	for i, src := range cases {
		if _, err := ParseOBJ(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestParseOBJRoundTripThroughPipeline(t *testing.T) {
	m, err := ParseOBJ(strings.NewReader(objCubeSrc))
	if err != nil {
		t.Fatal(err)
	}
	scene := &Scene{
		Camera: testCamera(),
		Objects: []Object{
			{Mesh: m, Transform: geom.Translate(-0.5, -0.5, 0)},
		},
	}
	prims, _, err := Run(scene, PipelineConfig{Screen: geom.DefaultScreen()})
	if err != nil {
		t.Fatal(err)
	}
	if len(prims) == 0 {
		t.Fatal("OBJ mesh produced no primitives")
	}
}

func TestSphere(t *testing.T) {
	s := Sphere(8, 12)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumTriangles() != 8*12*2 {
		t.Errorf("triangles = %d, want %d", s.NumTriangles(), 8*12*2)
	}
	// All vertices on the unit sphere.
	for i, v := range s.Vertices {
		r := math.Sqrt(float64(v.Pos.X*v.Pos.X + v.Pos.Y*v.Pos.Y + v.Pos.Z*v.Pos.Z))
		if math.Abs(r-1) > 1e-5 {
			t.Fatalf("vertex %d at radius %v", i, r)
		}
	}
	// Degenerate parameters clamp instead of failing.
	tiny := Sphere(0, 0)
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
	// Closed mesh through the pipeline: roughly half the triangles face
	// away (poles give some slack).
	scene := &Scene{
		Camera:  testCamera(),
		Objects: []Object{{Mesh: Sphere(12, 16), Transform: geom.ScaleUniform(1.5)}},
	}
	prims, st, err := Run(scene, PipelineConfig{Screen: geom.DefaultScreen(), CullBackfaces: true})
	if err != nil {
		t.Fatal(err)
	}
	// Roughly half the triangles face away; pole-degenerate and
	// silhouette (edge-on, zero projected area) triangles of a coarse
	// sphere are culled too, pushing the fraction above 1/2.
	frac := float64(st.CulledBackfacing) / float64(st.TrianglesIn)
	if frac < 0.45 || frac > 0.8 {
		t.Errorf("backface-culled fraction = %.2f, want roughly half plus silhouette", frac)
	}
	if len(prims) == 0 {
		t.Fatal("sphere invisible")
	}
}
