package geometry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"tcor/internal/geom"
)

// ParseOBJ reads the subset of the Wavefront OBJ format real assets use for
// plain geometry: `v x y z` vertex positions, `vt u v` texture coordinates,
// and `f` faces referencing them (v, v/vt, v/vt/vn or v//vn forms; faces
// with more than three vertices are fan-triangulated). Normals are parsed
// and ignored — every vertex counts two attributes, a color and a UV, and
// the UV values are checked but not kept, since the pipeline carries only
// the count. Indices may be negative (relative), as the spec allows.
func ParseOBJ(r io.Reader) (*Mesh, error) {
	var positions []geom.Vec3
	var numUVs int
	m := &Mesh{NumAttrs: 2}
	// OBJ faces index positions and UVs independently; the Mesh format
	// wants unified vertices, so deduplicate (pos, uv) pairs: a position
	// under two UVs is two vertices, as in the asset.
	vertexOf := make(map[[2]int]uint32)

	resolve := func(idx, n int) (int, error) {
		if idx > 0 && idx <= n {
			return idx - 1, nil
		}
		if idx < 0 && -idx <= n {
			return n + idx, nil
		}
		return 0, fmt.Errorf("geometry: OBJ index %d out of range (have %d)", idx, n)
	}

	unified := func(vi, ti int) uint32 {
		key := [2]int{vi, ti}
		if id, ok := vertexOf[key]; ok {
			return id
		}
		id := uint32(len(m.Vertices))
		m.Vertices = append(m.Vertices, Vertex{Pos: positions[vi]})
		vertexOf[key] = id
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "v":
			if len(fields) < 4 {
				return nil, fmt.Errorf("geometry: OBJ line %d: short vertex", lineNo)
			}
			var xyz [3]float64
			for i := 0; i < 3; i++ {
				f, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("geometry: OBJ line %d: %v", lineNo, err)
				}
				xyz[i] = f
			}
			positions = append(positions, geom.Vec3{
				X: float32(xyz[0]), Y: float32(xyz[1]), Z: float32(xyz[2])})
		case "vt":
			if len(fields) < 3 {
				return nil, fmt.Errorf("geometry: OBJ line %d: short texcoord", lineNo)
			}
			_, err1 := strconv.ParseFloat(fields[1], 64)
			_, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("geometry: OBJ line %d: bad texcoord", lineNo)
			}
			numUVs++
		case "f":
			if len(fields) < 4 {
				return nil, fmt.Errorf("geometry: OBJ line %d: face needs 3+ vertices", lineNo)
			}
			var ids []uint32
			for _, ref := range fields[1:] {
				parts := strings.Split(ref, "/")
				vi64, err := strconv.Atoi(parts[0])
				if err != nil {
					return nil, fmt.Errorf("geometry: OBJ line %d: %v", lineNo, err)
				}
				vi, err := resolve(vi64, len(positions))
				if err != nil {
					return nil, fmt.Errorf("geometry: OBJ line %d: %v", lineNo, err)
				}
				ti := -1
				if len(parts) > 1 && parts[1] != "" {
					ti64, err := strconv.Atoi(parts[1])
					if err != nil {
						return nil, fmt.Errorf("geometry: OBJ line %d: %v", lineNo, err)
					}
					if ti, err = resolve(ti64, numUVs); err != nil {
						return nil, fmt.Errorf("geometry: OBJ line %d: %v", lineNo, err)
					}
				}
				ids = append(ids, unified(vi, ti))
			}
			// Fan-triangulate.
			for k := 1; k+1 < len(ids); k++ {
				m.Indices = append(m.Indices, ids[0], ids[k], ids[k+1])
			}
		case "vn", "g", "o", "s", "usemtl", "mtllib":
			// Parsed-and-ignored: normals, groups, materials.
		default:
			return nil, fmt.Errorf("geometry: OBJ line %d: unsupported record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Sphere returns a UV-sphere mesh with the given subdivision (stacks x
// slices), radius 1, counting one color and one UV attribute per vertex.
func Sphere(stacks, slices int) *Mesh {
	if stacks < 2 {
		stacks = 2
	}
	if slices < 3 {
		slices = 3
	}
	m := &Mesh{NumAttrs: 2}
	for i := 0; i <= stacks; i++ {
		phi := math.Pi * float64(i) / float64(stacks)
		for j := 0; j <= slices; j++ {
			theta := 2 * math.Pi * float64(j) / float64(slices)
			x := float32(math.Sin(phi) * math.Cos(theta))
			y := float32(math.Cos(phi))
			z := float32(math.Sin(phi) * math.Sin(theta))
			m.Vertices = append(m.Vertices, Vertex{Pos: geom.Vec3{X: x, Y: y, Z: z}})
		}
	}
	cols := uint32(slices + 1)
	for i := 0; i < stacks; i++ {
		for j := 0; j < slices; j++ {
			a := uint32(i)*cols + uint32(j)
			b := a + cols
			// Two CCW triangles per quad (outward winding).
			m.Indices = append(m.Indices, a, a+1, b, a+1, b+1, b)
		}
	}
	return m
}
