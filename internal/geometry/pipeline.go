package geometry

import (
	"fmt"

	"tcor/internal/geom"
)

// PipelineConfig controls the Geometry Pipeline stages.
type PipelineConfig struct {
	Screen geom.Screen
	// CullBackfaces drops screen-space clockwise triangles (the usual
	// default for closed meshes).
	CullBackfaces bool
}

// PipelineStats counts what happened to the submitted geometry.
type PipelineStats struct {
	TrianglesIn      int
	CulledFrustum    int // rejected entirely outside the view volume
	CulledBackfacing int
	CulledDegenerate int
	Clipped          int // triangles that intersected a clip plane
	TrianglesOut     int
}

// Run pushes a scene through the Geometry Pipeline and returns the
// screen-space primitives in emission order (IDs assigned 0..n-1, the
// program order the Tiling Engine requires) together with the stage
// statistics.
func Run(scene *Scene, cfg PipelineConfig) ([]geom.Primitive, PipelineStats, error) {
	var st PipelineStats
	if err := scene.Camera.Validate(); err != nil {
		return nil, st, err
	}
	if err := cfg.Screen.Validate(); err != nil {
		return nil, st, err
	}
	vp := scene.Camera.ViewProjection()

	var out []geom.Primitive
	for oi := range scene.Objects {
		obj := &scene.Objects[oi]
		if obj.Mesh == nil {
			return nil, st, fmt.Errorf("geometry: object %d has no mesh", oi)
		}
		if err := obj.Mesh.Validate(); err != nil {
			return nil, st, err
		}
		mvp := vp.Mul(obj.Transform)

		// Vertex Stage: transform every vertex once (the Vertex Cache in
		// the full GPU model makes this a fetch-once operation too).
		clipVerts := make([]geom.Vec4, len(obj.Mesh.Vertices))
		for i, v := range obj.Mesh.Vertices {
			clipVerts[i] = mvp.Apply(geom.Vec4{X: v.Pos.X, Y: v.Pos.Y, Z: v.Pos.Z, W: 1})
		}

		// Primitive Assembly + clip + viewport.
		idx := obj.Mesh.Indices
		for t := 0; t+2 < len(idx); t += 3 {
			st.TrianglesIn++
			tri := [3]geom.Vec4{clipVerts[idx[t]], clipVerts[idx[t+1]], clipVerts[idx[t+2]]}
			poly, touched := clipTriangle(tri)
			if len(poly) < 3 {
				st.CulledFrustum++
				continue
			}
			if touched {
				st.Clipped++
			}
			// Triangulate the clipped polygon as a fan and emit.
			for k := 1; k+1 < len(poly); k++ {
				p, ok := toScreen([3]geom.Vec4{poly[0], poly[k], poly[k+1]}, cfg.Screen)
				if !ok {
					st.CulledDegenerate++
					continue
				}
				if cfg.CullBackfaces && signedArea(p) >= 0 {
					st.CulledBackfacing++
					continue
				}
				p.ID = uint32(len(out))
				p.NumAttrs = obj.Mesh.NumAttrs
				out = append(out, p)
				st.TrianglesOut++
			}
		}
	}
	return out, st, nil
}

// clipPlane identifies one of the six clip-space half-spaces via a signed
// distance function that is positive inside.
type clipPlane func(v geom.Vec4) float32

var clipPlanes = [6]clipPlane{
	func(v geom.Vec4) float32 { return v.W - v.X }, // x <= w
	func(v geom.Vec4) float32 { return v.W + v.X }, // x >= -w
	func(v geom.Vec4) float32 { return v.W - v.Y }, // y <= w
	func(v geom.Vec4) float32 { return v.W + v.Y }, // y >= -w
	func(v geom.Vec4) float32 { return v.W - v.Z }, // z <= w
	func(v geom.Vec4) float32 { return v.W + v.Z }, // z >= -w (near plane)
}

// clipTriangle clips a clip-space triangle against the view volume with
// Sutherland–Hodgman. It returns the clipped polygon (empty when fully
// outside) and whether any plane actually cut it.
func clipTriangle(tri [3]geom.Vec4) ([]geom.Vec4, bool) {
	poly := tri[:]
	touched := false
	for _, plane := range clipPlanes {
		if len(poly) == 0 {
			break
		}
		var next []geom.Vec4
		for i := range poly {
			cur := poly[i]
			prev := poly[(i+len(poly)-1)%len(poly)]
			dc, dp := plane(cur), plane(prev)
			inC, inP := dc >= 0, dp >= 0
			if inP != inC {
				touched = true
				next = append(next, lerpVertex(prev, cur, dp/(dp-dc)))
			}
			if inC {
				next = append(next, cur)
			}
		}
		poly = next
	}
	return poly, touched
}

// lerpVertex interpolates a clip-space position at parameter t in [0,1]
// from a toward b.
func lerpVertex(a, b geom.Vec4, t float32) geom.Vec4 {
	return a.Add(b.Sub(a).Scale(t))
}

// toScreen performs the perspective divide and viewport transform.
func toScreen(tri [3]geom.Vec4, screen geom.Screen) (geom.Primitive, bool) {
	var p geom.Primitive
	for i, cv := range tri {
		if cv.W <= 0 {
			return p, false // behind the eye even after clipping: degenerate
		}
		ndc := cv.PerspectiveDivide()
		p.Pos[i] = geom.Vec2{
			X: (ndc.X*0.5 + 0.5) * float32(screen.Width),
			Y: (1 - (ndc.Y*0.5 + 0.5)) * float32(screen.Height),
		}
		p.Depth[i] = ndc.Z*0.5 + 0.5
	}
	return p, true
}

// signedArea returns twice the signed screen-space area. Screen
// coordinates grow downward, so triangles with counter-clockwise
// object-space winding viewed from their front project to a *negative*
// value; back-facing and edge-on triangles are >= 0.
func signedArea(p geom.Primitive) float32 {
	a := p.Pos[1].Sub(p.Pos[0])
	b := p.Pos[2].Sub(p.Pos[0])
	return a.Cross(b)
}
