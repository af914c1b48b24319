package workload

import (
	"fmt"
	"math"
	"math/rand"

	"tcor/internal/geom"
)

// Frame is one frame of binned-ready geometry: the primitives in program
// order, as they leave the Primitive Assembly stage.
type Frame struct {
	Prims []geom.Primitive
}

// Stats summarizes the realized (measured) characteristics of a generated
// frame, for comparison against the Table II targets.
type Stats struct {
	Primitives    int
	TotalOverlaps int     // sum over primitives of tiles overlapped
	AvgPrimReuse  float64 // TotalOverlaps / Primitives
	AvgPrimsTile  float64 // TotalOverlaps / tiles
	PBFootprint   int64   // bytes: attributes (block aligned) + PMDs
	AvgAttrs      float64
}

// Scene is a calibrated multi-frame workload for one benchmark.
type Scene struct {
	Spec   Spec
	Screen geom.Screen
	frames []Frame
	stats  Stats // stats of frame 0
}

// NumFrames returns the number of generated frames.
func (sc *Scene) NumFrames() int { return len(sc.frames) }

// Frame returns frame i.
func (sc *Scene) Frame(i int) *Frame { return &sc.frames[i] }

// Stats returns the realized statistics of the first frame.
func (sc *Scene) Stats() Stats { return sc.stats }

// NewSceneFromFrames wraps externally produced primitive streams (for
// example the output of the internal/geometry pipeline on a real 3D scene)
// as a workload Scene so they can drive the full-system simulator. The spec
// supplies the non-geometric parameters (texture footprint, shader length);
// its calibration targets are ignored. Primitive IDs must be in program
// order within each frame.
func NewSceneFromFrames(spec Spec, screen geom.Screen, frames []Frame) (*Scene, error) {
	if err := screen.Validate(); err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("workload: need at least one frame")
	}
	for f := range frames {
		for i := range frames[f].Prims {
			p := &frames[f].Prims[i]
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("workload: frame %d: %w", f, err)
			}
			if p.ID != uint32(i) {
				return nil, fmt.Errorf("workload: frame %d prim %d has ID %d; program order required", f, i, p.ID)
			}
		}
	}
	spec.Frames = len(frames)
	return &Scene{
		Spec:   spec,
		Screen: screen,
		frames: frames,
		stats:  measure(screen, &frames[0]),
	}, nil
}

// Generate builds the calibrated scene for a spec on the given screen. The
// generation loop adjusts the primitive count and the size distribution so
// that the realized Parameter Buffer footprint and average primitive re-use
// match the Table II targets within a few percent.
func Generate(spec Spec, screen geom.Screen) (*Scene, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := screen.Validate(); err != nil {
		return nil, err
	}

	targetBytes := spec.PBFootprintMiB * 1024 * 1024
	// Initial estimates: per-primitive bytes = attrs*64 (block-aligned
	// attributes) + reuse*4 (one 4-byte PMD per overlapped tile list).
	perPrim := spec.MeanAttrs*64 + spec.AvgPrimReuse*4
	numPrims := int(targetBytes / perPrim)
	if numPrims < 8 {
		numPrims = 8
	}
	// Initial size scale: a triangle with legs L spans roughly
	// (L/T + 1)^2 * 0.6 tiles, so invert for the target reuse.
	tile := float64(screen.TileSize)
	sizeScale := tile * (math.Sqrt(spec.AvgPrimReuse/0.6) - 1)
	if sizeScale < 2 {
		sizeScale = 2
	}

	var frame Frame
	var st Stats
	for iter := 0; iter < 8; iter++ {
		var overlaps int
		frame, overlaps = synthesizeFrame(spec, screen, numPrims, sizeScale, 0)
		st = frameStats(screen, &frame, overlaps)
		reuseErr := st.AvgPrimReuse / spec.AvgPrimReuse
		footErr := float64(st.PBFootprint) / targetBytes
		if math.Abs(reuseErr-1) < 0.03 && math.Abs(footErr-1) < 0.03 {
			break
		}
		// Multiplicative updates. Reuse responds to size sub-linearly
		// (tiles ~ size^2 for big prims, but floor of 1 tile for small
		// ones), so damp the correction.
		adj := math.Pow(1/reuseErr, 0.7)
		sizeScale *= clampF(adj, 0.4, 2.5)
		if sizeScale < 1 {
			sizeScale = 1
		}
		numPrims = int(float64(numPrims) / footErr)
		if numPrims < 8 {
			numPrims = 8
		}
	}

	sc := &Scene{Spec: spec, Screen: screen, stats: st}
	sc.frames = make([]Frame, spec.Frames)
	sc.frames[0] = frame
	for f := 1; f < spec.Frames; f++ {
		sc.frames[f], _ = synthesizeFrame(spec, screen, numPrims, sizeScale, f)
	}
	return sc, nil
}

// synthesizeFrame generates the primitives of one frame. The layout mixes a
// handful of large "background" triangles (sky, ground planes — the 3D
// games' large-coverage geometry) with many smaller foreground triangles
// whose size follows a lognormal distribution. Frame index shifts object
// positions slightly (animation), so consecutive frames have similar but not
// identical binning. It also returns the frame's total tile overlap count,
// the sum of len(OverlappedTiles) over the kept primitives.
func synthesizeFrame(spec Spec, screen geom.Screen, numPrims int, sizeScale float64, frameIdx int) (Frame, int) {
	rng := rand.New(rand.NewSource(spec.Seed*1_000_003 + int64(frameIdx)))
	w, h := float64(screen.Width), float64(screen.Height)
	prims := make([]geom.Primitive, 0, numPrims)
	// One OverlappedTiles pass per candidate serves both the off-screen
	// cull and the frame's overlap count.
	var buf []geom.TileID
	var overlaps int
	tiles := func(p *geom.Primitive) int {
		buf = screen.OverlappedTiles(p, buf[:0])
		return len(buf)
	}

	// Background layer, drawn first (painter's order): a full-screen quad
	// (two triangles) at maximum depth — most games paint a backdrop or
	// skybox over the whole screen, which is what gives frames their ~full
	// screen coverage and overdraw of 1.5-3x. Very-low-reuse titles (DDS,
	// Snp: Table II re-use < 2) cannot contain a 1488-tile primitive in
	// their reuse budget; those games clear the backdrop instead of
	// drawing it (a free operation in a TBR GPU's on-chip Color Buffer).
	if spec.AvgPrimReuse >= 2 {
		fullscreen := [2][3]geom.Vec2{
			{{X: -1, Y: -1}, {X: float32(w) + 1, Y: -1}, {X: -1, Y: float32(h) + 1}},
			{{X: float32(w) + 1, Y: float32(h) + 1}, {X: float32(w) + 1, Y: -1}, {X: -1, Y: float32(h) + 1}},
		}
		for _, pos := range fullscreen {
			p := triangleAt(rng, w/2, h/2, 1, 1, spec, uint32(len(prims)))
			p.Pos = pos
			p.Depth = [3]float32{0.999, 0.999, 0.999} // behind everything
			overlaps += tiles(&p)
			prims = append(prims, p)
		}
	}
	// 3D scenes add a couple of large mid-ground planes (terrain).
	if spec.ThreeD && numPrims > 64 {
		for i := 0; i < 2+rng.Intn(2); i++ {
			cx, cy := w*(0.25+rng.Float64()/2), h*(0.25+rng.Float64()/2)
			span := 0.4 + rng.Float64()*0.5
			p := triangleAt(rng, cx, cy, span*w, span*h, spec, uint32(len(prims)))
			for v := range p.Depth {
				p.Depth[v] = 0.9 + rng.Float32()*0.05
			}
			overlaps += tiles(&p)
			prims = append(prims, p)
		}
	}

	// Foreground: primitives arrive mesh by mesh, the way applications
	// submit draw calls. Each mesh is a run of consecutive primitives
	// around a drifting anchor, so program order has the spatial locality
	// the Polygon List Builder exploits at memory-block granularity
	// (§III-C1: 16 PMDs share a block, and consecutive primitives of a
	// mesh bin into the same tiles).
	sigma := 0.8
	drift := float32(frameIdx) * 7 // animation between frames
	var meshLeft int
	var mx, my float64
	for len(prims) < numPrims {
		if meshLeft == 0 {
			meshLeft = 8 + rng.Intn(48)
			mx = rng.Float64() * w
			my = rng.Float64() * h
		}
		meshLeft--
		// The anchor walks a little per primitive (triangle strips).
		mx += rng.NormFloat64() * w / 64
		my += rng.NormFloat64() * h / 64
		cx := math.Mod(math.Abs(mx+float64(drift)), w)
		cy := math.Mod(math.Abs(my), h)
		size := sizeScale * math.Exp(rng.NormFloat64()*sigma-sigma*sigma/2)
		// Shape mixture. Real game geometry is not uniformly compact:
		// roads, walls and UI strips are long and thin (their tiles are
		// scattered across the traversal, stretching reuse distances),
		// and occasional large props cover many tiles. This mixture is
		// what gives the Parameter Buffer stream its LRU-hostile reuse
		// pattern; the calibration loop keeps the *mean* re-use at the
		// Table II target regardless.
		var p geom.Primitive
		switch roll := rng.Intn(10); {
		case roll < 3:
			// Elongated sliver at an arbitrary angle (roads, walls,
			// beams, skid marks). Diagonal slivers cross many Z-order
			// quadrants, so their tile visits are spread across the whole
			// traversal — the long-reuse-distance component of real
			// scenes that separates OPT from LRU.
			stretch := 8 + rng.Float64()*24
			p = sliverAt(rng, cx, cy, size*stretch, size*0.3, spec, uint32(len(prims)))
		case roll < 4: // large prop
			p = triangleAt(rng, cx, cy, size*2.5, size*2.5, spec, uint32(len(prims)))
		default:
			p = triangleAt(rng, cx, cy, size, size, spec, uint32(len(prims)))
		}
		n := tiles(&p)
		if n == 0 {
			continue // fully off-screen; the Tiling Engine would cull it
		}
		overlaps += n
		prims = append(prims, p)
	}
	return Frame{Prims: prims}, overlaps
}

// sliverAt builds a long thin triangle of the given length and width,
// centered near (cx, cy) at a random angle.
func sliverAt(rng *rand.Rand, cx, cy, length, width float64, spec Spec, id uint32) geom.Primitive {
	theta := rng.Float64() * math.Pi
	dx, dy := math.Cos(theta), math.Sin(theta)
	// Perpendicular for the width.
	px, py := -dy, dx
	p := triangleAt(rng, cx, cy, 1, 1, spec, id) // depth + attribute count; positions replaced
	p.Pos[0] = geom.Vec2{X: float32(cx - dx*length/2), Y: float32(cy - dy*length/2)}
	p.Pos[1] = geom.Vec2{X: float32(cx + dx*length/2), Y: float32(cy + dy*length/2)}
	p.Pos[2] = geom.Vec2{X: float32(cx + px*width), Y: float32(cy + py*width)}
	return p
}

// triangleAt builds one primitive centered near (cx, cy) with extents
// (sx, sy), random orientation, depth and attribute count. It still draws
// the nine random values (x, y, z of each of three vertices) that each
// attribute's payload once took, and discards them: nothing reads an
// attribute's value, but the draws keep the random stream, and so every
// scene, as it was when primitives carried them.
func triangleAt(rng *rand.Rand, cx, cy, sx, sy float64, spec Spec, id uint32) geom.Primitive {
	var p geom.Primitive
	p.ID = id
	for i := 0; i < 3; i++ {
		p.Pos[i] = geom.Vec2{
			X: float32(cx + (rng.Float64()-0.5)*sx),
			Y: float32(cy + (rng.Float64()-0.5)*sy),
		}
		p.Depth[i] = float32(rng.Float64())
	}
	// Attribute count: integer around MeanAttrs in [1, 15] so that the mean
	// over many primitives matches the spec.
	n := int(spec.MeanAttrs)
	frac := spec.MeanAttrs - float64(n)
	if rng.Float64() < frac {
		n++
	}
	// Mild variance: +/-1 with 25% probability each way.
	switch rng.Intn(4) {
	case 0:
		n++
	case 1:
		n--
	}
	if n < 1 {
		n = 1
	}
	if n > geom.MaxAttributes {
		n = geom.MaxAttributes
	}
	p.NumAttrs = uint8(n)
	for i := 0; i < 9*n; i++ {
		rng.Float32()
	}
	return p
}

// measure bins the frame and computes its realized statistics.
func measure(screen geom.Screen, f *Frame) Stats {
	var overlaps int
	var buf []geom.TileID
	for i := range f.Prims {
		buf = screen.OverlappedTiles(&f.Prims[i], buf[:0])
		overlaps += len(buf)
	}
	return frameStats(screen, f, overlaps)
}

// frameStats computes the realized statistics of a frame whose primitives
// overlap overlaps tiles in total.
func frameStats(screen geom.Screen, f *Frame, overlaps int) Stats {
	st := Stats{Primitives: len(f.Prims), TotalOverlaps: overlaps}
	var attrSum int
	for i := range f.Prims {
		attrSum += int(f.Prims[i].NumAttrs)
	}
	if st.Primitives > 0 {
		st.AvgPrimReuse = float64(st.TotalOverlaps) / float64(st.Primitives)
		st.AvgAttrs = float64(attrSum) / float64(st.Primitives)
	}
	st.AvgPrimsTile = float64(st.TotalOverlaps) / float64(screen.NumTiles())
	// Attributes are 48 bytes, block-aligned: one 64-byte block each.
	// Each overlap costs one 4-byte PMD in a tile list.
	st.PBFootprint = int64(attrSum)*64 + int64(st.TotalOverlaps)*4
	return st
}

// Measure exposes the frame statistics computation for callers outside the
// generation loop (experiments, tests).
func Measure(screen geom.Screen, f *Frame) Stats { return measure(screen, f) }

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
