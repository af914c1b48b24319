package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tcor/internal/geom"
)

func testCamera() Camera {
	return Camera{
		Eye:    geom.Vec3{X: 0, Y: 0, Z: 5},
		Target: geom.Vec3{X: 0, Y: 0, Z: 0},
		Up:     geom.Vec3{X: 0, Y: 1, Z: 0},
		FovY:   math.Pi / 3,
		Aspect: 1960.0 / 768.0,
		Near:   0.1,
		Far:    100,
	}
}

func TestCameraValidate(t *testing.T) {
	good := testCamera()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Camera){
		func(c *Camera) { c.FovY = 0 },
		func(c *Camera) { c.FovY = math.Pi },
		func(c *Camera) { c.Aspect = 0 },
		func(c *Camera) { c.Near = 0 },
		func(c *Camera) { c.Far = c.Near },
		func(c *Camera) { c.Target = c.Eye },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestViewMatrixMapsEyeToOrigin(t *testing.T) {
	c := testCamera()
	v := c.View().Apply(geom.Vec4{X: c.Eye.X, Y: c.Eye.Y, Z: c.Eye.Z, W: 1})
	if math.Abs(float64(v.X)) > 1e-5 || math.Abs(float64(v.Y)) > 1e-5 || math.Abs(float64(v.Z)) > 1e-5 {
		t.Errorf("eye maps to %v, want origin", v)
	}
	// The target lies straight ahead (negative z in camera space).
	tv := c.View().Apply(geom.Vec4{W: 1})
	if tv.Z >= 0 {
		t.Errorf("target at camera-space z %v, want negative (ahead)", tv.Z)
	}
}

func TestProjectionCenterAndDepthRange(t *testing.T) {
	c := testCamera()
	vp := c.ViewProjection()
	// A point straight ahead projects to the NDC center.
	p := vp.Apply(geom.Vec4{X: 0, Y: 0, Z: 0, W: 1}).PerspectiveDivide()
	if math.Abs(float64(p.X)) > 1e-5 || math.Abs(float64(p.Y)) > 1e-5 {
		t.Errorf("center point at NDC (%v, %v)", p.X, p.Y)
	}
	// Near-plane points map to NDC z=-1, far-plane to z=+1.
	near := c.Projection().Apply(geom.Vec4{Z: -c.Near, W: 1}).PerspectiveDivide()
	far := c.Projection().Apply(geom.Vec4{Z: -c.Far, W: 1}).PerspectiveDivide()
	if math.Abs(float64(near.Z+1)) > 1e-4 || math.Abs(float64(far.Z-1)) > 1e-4 {
		t.Errorf("depth range: near %v far %v, want -1/+1", near.Z, far.Z)
	}
}

func TestMeshValidate(t *testing.T) {
	cube := Cube()
	if err := cube.Validate(); err != nil {
		t.Fatal(err)
	}
	if cube.NumTriangles() != 12 {
		t.Errorf("cube has %d triangles", cube.NumTriangles())
	}
	bad := &Mesh{Vertices: cube.Vertices, Indices: []uint32{0, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("non-multiple-of-3 indices must fail")
	}
	bad = &Mesh{Vertices: cube.Vertices, Indices: []uint32{0, 1, 99}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range index must fail")
	}
	bad = &Mesh{
		Vertices: []Vertex{{}, {}, {}},
		Indices:  []uint32{0, 1, 2},
	}
	if err := bad.Validate(); err == nil {
		t.Error("attribute-less vertices must fail")
	}
	bad.NumAttrs = geom.MaxAttributes + 1
	if err := bad.Validate(); err == nil {
		t.Error("more attributes than the PMD encodes must fail")
	}
}

func TestRunCubeScene(t *testing.T) {
	// View the cube from an oblique angle so that exactly three faces
	// (six triangles) face the camera and six are back-facing.
	cam := testCamera()
	cam.Eye = geom.Vec3{X: 3, Y: 2.5, Z: 5}
	scene := &Scene{
		Camera: cam,
		Objects: []Object{
			{Mesh: Cube(), Transform: geom.Identity()},
		},
	}
	screen := geom.DefaultScreen()
	prims, st, err := Run(scene, PipelineConfig{Screen: screen, CullBackfaces: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.TrianglesIn != 12 {
		t.Errorf("triangles in = %d", st.TrianglesIn)
	}
	if st.CulledBackfacing != 6 {
		t.Errorf("backface culled = %d, want 6 (three hidden faces)", st.CulledBackfacing)
	}
	if st.TrianglesOut != 6 {
		t.Errorf("triangles out = %d, want 6 (three visible faces)", st.TrianglesOut)
	}
	if len(prims) == 0 {
		t.Fatal("no primitives emitted")
	}
	for i, p := range prims {
		if p.ID != uint32(i) {
			t.Fatalf("prim %d has ID %d; emission order required", i, p.ID)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("prim %d: %v", i, err)
		}
		// The cube is fully inside the frustum: every vertex on screen.
		for _, v := range p.Pos {
			if v.X < -0.5 || v.X > float32(screen.Width)+0.5 ||
				v.Y < -0.5 || v.Y > float32(screen.Height)+0.5 {
				t.Fatalf("prim %d vertex %v off screen", i, v)
			}
		}
		for _, d := range p.Depth {
			if d < 0 || d > 1 {
				t.Fatalf("prim %d depth %v outside [0,1]", i, d)
			}
		}
	}
}

func TestRunCullsBehindCamera(t *testing.T) {
	scene := &Scene{
		Camera: testCamera(), // looking down -z from z=5
		Objects: []Object{
			{Mesh: Cube(), Transform: geom.Translate(0, 0, 50)}, // behind the eye
		},
	}
	prims, st, err := Run(scene, PipelineConfig{Screen: geom.DefaultScreen()})
	if err != nil {
		t.Fatal(err)
	}
	if len(prims) != 0 {
		t.Errorf("emitted %d primitives for geometry behind the camera", len(prims))
	}
	if st.CulledFrustum != 12 {
		t.Errorf("frustum culled = %d, want 12", st.CulledFrustum)
	}
}

func TestRunClipsStraddlingGeometry(t *testing.T) {
	// A huge ground plane extends behind the camera: it must be clipped,
	// not dropped, and all emitted vertices must be on screen.
	scene := &Scene{
		Camera: Camera{
			Eye:    geom.Vec3{X: 0, Y: 2, Z: 5},
			Target: geom.Vec3{X: 0, Y: 0, Z: 0},
			Up:     geom.Vec3{X: 0, Y: 1, Z: 0},
			FovY:   math.Pi / 3,
			Aspect: 1960.0 / 768.0,
			Near:   0.1, Far: 100,
		},
		Objects: []Object{
			{Mesh: Plane(1000, 0), Transform: geom.Identity()},
		},
	}
	screen := geom.DefaultScreen()
	prims, st, err := Run(scene, PipelineConfig{Screen: screen})
	if err != nil {
		t.Fatal(err)
	}
	if st.Clipped == 0 {
		t.Error("expected clipping on a screen-straddling plane")
	}
	if len(prims) == 0 {
		t.Fatal("plane fully culled")
	}
	const slack = 1.0 // float rounding at the borders
	for i, p := range prims {
		for _, v := range p.Pos {
			if v.X < -slack || v.X > float32(screen.Width)+slack ||
				v.Y < -slack || v.Y > float32(screen.Height)+slack {
				t.Fatalf("prim %d vertex %v escapes the viewport after clipping", i, v)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	scene := &Scene{Camera: testCamera()}
	if _, _, err := Run(scene, PipelineConfig{}); err == nil {
		t.Error("invalid screen must fail")
	}
	scene.Camera.Near = 0
	if _, _, err := Run(scene, PipelineConfig{Screen: geom.DefaultScreen()}); err == nil {
		t.Error("invalid camera must fail")
	}
	scene = &Scene{Camera: testCamera(), Objects: []Object{{}}}
	if _, _, err := Run(scene, PipelineConfig{Screen: geom.DefaultScreen()}); err == nil {
		t.Error("object without mesh must fail")
	}
}

// Property: clipping never produces vertices outside the view volume (all
// six plane distances non-negative up to epsilon) and fully-inside
// triangles pass through untouched.
func TestClipTriangleProperties(t *testing.T) {
	f := func(coords [9]int8, wRaw uint8) bool {
		w := float32(wRaw%20) + 1
		var tri [3]geom.Vec4
		for i := 0; i < 3; i++ {
			tri[i] = geom.Vec4{
				X: float32(coords[i*3]) / 16 * w,
				Y: float32(coords[i*3+1]) / 16 * w,
				Z: float32(coords[i*3+2]) / 16 * w,
				W: w,
			}
		}
		poly, touched := clipTriangle(tri)
		const eps = 1e-3
		for _, v := range poly {
			for _, plane := range clipPlanes {
				if plane(v) < -eps*w {
					return false
				}
			}
		}
		// Inside triangles (|coord| <= w/2 guarantees inside) are identity.
		allInside := true
		for i := 0; i < 9; i++ {
			if coords[i] < -16 || coords[i] > 16 {
				allInside = false
			}
		}
		if allInside && (touched || len(poly) != 3) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: position interpolation stays within the convex hull of the
// input positions.
func TestLerpVertexBounds(t *testing.T) {
	f := func(aRaw, bRaw int8, tRaw uint8) bool {
		a := geom.Vec4{X: float32(aRaw)}
		b := geom.Vec4{X: float32(bRaw)}
		tt := float32(tRaw) / 255
		v := lerpVertex(a, b, tt)
		lo, hi := float32(aRaw), float32(bRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		return v.X >= lo-1e-4 && v.X <= hi+1e-4
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestBackfaceCullingIsWindingSensitive(t *testing.T) {
	// One triangle facing the camera, its mirror facing away.
	front := &Mesh{
		Vertices: []Vertex{
			{Pos: geom.Vec3{X: -1, Y: -1}},
			{Pos: geom.Vec3{X: 1, Y: -1}},
			{Pos: geom.Vec3{X: 0, Y: 1}},
		},
		Indices:  []uint32{0, 1, 2},
		NumAttrs: 1,
	}
	back := &Mesh{Vertices: front.Vertices, Indices: []uint32{0, 2, 1}, NumAttrs: 1}
	scene := &Scene{
		Camera: testCamera(),
		Objects: []Object{
			{Mesh: front, Transform: geom.Identity()},
			{Mesh: back, Transform: geom.Identity()},
		},
	}
	prims, st, err := Run(scene, PipelineConfig{Screen: geom.DefaultScreen(), CullBackfaces: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prims) != 1 || st.CulledBackfacing != 1 {
		t.Errorf("emitted %d prims, backface-culled %d; want 1/1", len(prims), st.CulledBackfacing)
	}
}

func TestPipelineFeedsTiling(t *testing.T) {
	// End-to-end sanity: the pipeline's output is bin-ready (validated by
	// tiling.Bin's own checks indirectly through prim.Validate and IDs).
	scene := &Scene{
		Camera: testCamera(),
		Objects: []Object{
			{Mesh: Cube(), Transform: geom.ScaleUniform(2)},
			{Mesh: Plane(20, -1.5), Transform: geom.Identity()},
		},
	}
	prims, _, err := Run(scene, PipelineConfig{Screen: geom.DefaultScreen(), CullBackfaces: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prims) < 3 {
		t.Fatalf("scene produced only %d primitives", len(prims))
	}
	var buf []geom.TileID
	total := 0
	screen := geom.DefaultScreen()
	for i := range prims {
		buf = screen.OverlappedTiles(&prims[i], buf[:0])
		total += len(buf)
	}
	if total == 0 {
		t.Error("no tile overlaps from the 3D scene")
	}
}
