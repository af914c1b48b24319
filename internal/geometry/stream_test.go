package geometry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"tcor/internal/geom"
)

// runDigest hashes Run's output: the stage statistics, then each
// primitive's ID, positions, depths and attribute count in emission order.
func runDigest(t *testing.T, scene *Scene) string {
	t.Helper()
	prims, st, err := Run(scene, PipelineConfig{Screen: geom.DefaultScreen(), CullBackfaces: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Clipped == 0 {
		t.Fatal("scene exercises no clipping")
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", st)
	var b []byte
	for i := range prims {
		p := &prims[i]
		b = binary.LittleEndian.AppendUint32(b[:0], p.ID)
		for v := 0; v < 3; v++ {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(p.Pos[v].X))
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(p.Pos[v].Y))
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(p.Depth[v]))
		}
		b = append(b, p.NumAttrs)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// A grid of spheres, the nearest of which straddle the near plane and the
// screen edges, so the clipper cuts triangles.
func TestRunSphereDigest(t *testing.T) {
	scene := &Scene{Camera: Camera{
		Eye: geom.Vec3{X: 1, Y: 1, Z: 5}, Target: geom.Vec3{}, Up: geom.Vec3{Y: 1},
		FovY: 1.0, Aspect: 1960.0 / 768.0, Near: 0.5, Far: 100,
	}}
	sphere := Sphere(12, 16)
	for i := 0; i < 16; i++ {
		scene.Objects = append(scene.Objects, Object{
			Mesh:      sphere,
			Transform: geom.Translate(float32(i%4)*3-4.5, 0, float32(i/4)*3-4.5).Mul(geom.ScaleUniform(1.2)),
		})
	}
	const want = "22098a4d26922d0849205afd793f4af2549d82ffa08ff72e28f13697e88a13aa"
	if got := runDigest(t, scene); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}

// objFixture has texture coordinates, shared and unshared (position, uv)
// pairs, a position-only face and negative indices.
const objFixture = `
v -1 -1 0
v 1 -1 0
v 1 1 0
v -1 1 0
v 0 0 -8
vt 0 0
vt 1 0
vt 1 1
vt 0 1
vt 0.5 0.5
f 1/1 2/2 3/3 4/4
f 1/5 3/3 5/5
f -5/-5 -4/-4 -1/-1
f 2 5 3
`

func TestRunOBJDigest(t *testing.T) {
	m, err := ParseOBJ(strings.NewReader(objFixture))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Vertices) != 9 {
		t.Errorf("unified vertices = %d, want 9", len(m.Vertices))
	}
	scene := &Scene{
		Camera:  testCamera(),
		Objects: []Object{{Mesh: m, Transform: geom.Translate(0, 0, 4).Mul(geom.ScaleUniform(2))}},
	}
	const want = "55dcb6c259c1aeee2528ba926b9d4a30be001b5890e1f3b2119d952feb5179d8"
	if got := runDigest(t, scene); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
