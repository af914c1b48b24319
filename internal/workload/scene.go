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
//
// Frame 0's random stream is drawn once: a calibration pass changes only
// the primitive count and the size scale, so every pass rebuilds the same
// recorded candidates at its own scale (see stream.pass). Frames 1 and on
// are drawn in one pass each, at the calibrated count and scale.
func Generate(spec Spec, screen geom.Screen) (*Scene, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := screen.Validate(); err != nil {
		return nil, err
	}
	// A primitive overlaps at most every tile of the screen, so a higher
	// target cannot be reached: calibration would return a scene far off it.
	if tiles := screen.NumTiles(); spec.AvgPrimReuse > float64(tiles) {
		return nil, fmt.Errorf("workload %s: average reuse %v exceeds the screen's %d tiles", spec.Alias, spec.AvgPrimReuse, tiles)
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

	// The 3D planes are drawn only while numPrims > 64, and they sit
	// early in the stream, so each value of that flag has its own stream.
	var streams [2]*stream
	var frame Frame
	var st Stats
	for iter := 0; iter < 8; iter++ {
		planes := planesDrawn(spec, numPrims)
		k := 0
		if planes {
			k = 1
		}
		if streams[k] == nil {
			streams[k] = newStream(spec, screen, 0, planes, numPrims)
		}
		var overlaps int
		frame.Prims, overlaps = streams[k].pass(frame.Prims, numPrims, sizeScale)
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
		s := newStream(spec, screen, f, planesDrawn(spec, numPrims), 0)
		sc.frames[f].Prims, _ = s.pass(nil, numPrims, sizeScale)
	}
	return sc, nil
}

// planesDrawn reports whether a frame of numPrims primitives draws the 3D
// mid-ground planes.
func planesDrawn(spec Spec, numPrims int) bool { return spec.ThreeD && numPrims > 64 }

// A stream is the random stream of one frame: its backdrop and 3D planes,
// built once since they do not depend on the size scale, and its
// foreground candidates, drawn in order as passes need them. The layout
// mixes a handful of large "background" triangles (sky, ground planes —
// the 3D games' large-coverage geometry) with many smaller foreground
// triangles whose size follows a lognormal distribution. The frame index
// shifts object positions slightly (animation), so consecutive frames
// have similar but not identical binning.
type stream struct {
	screen geom.Screen
	rng    *rand.Rand
	w, h   float64
	drift  float64 // animation between frames
	attrs  float64 // the spec's MeanAttrs

	// The foreground's mesh state: primitives left in the current mesh
	// and its drifting anchor.
	meshLeft int
	mx, my   float64

	head         []geom.Primitive // backdrop and planes, in program order
	headOverlaps int

	// cands records each foreground candidate drawn so far, when the
	// stream is kept for more than one pass; otherwise cands holds one
	// slot that every draw reuses.
	cands  []candidate
	record bool

	buf []geom.TileID // OverlappedTiles scratch
}

// A candidate is what one foreground primitive drew from the stream:
// enough to rebuild its positions at any size scale with the float64
// expressions of a fresh draw, so the rebuilt float32s are bit-identical.
type candidate struct {
	cx, cy float64 // anchor
	ex     float64 // lognormal size factor: the size is sizeScale*ex
	// r holds a triangle's six raw position draws (x0, y0, x1, y1, x2,
	// y2), or, for a sliver, its stretch and the cosine and sine of its
	// angle in r[0], r[1] and r[2].
	r     [6]float64
	depth [3]float32
	shape uint8
	attrs uint8
}

// Candidate shapes.
const (
	shapeTriangle = iota
	shapeSliver
	shapeProp
)

// newStream draws the head of frame frameIdx's stream: the backdrop, and
// the 3D planes when planes is set. A stream that records keeps its
// candidates for later passes, presized for numPrims of them.
func newStream(spec Spec, screen geom.Screen, frameIdx int, planes bool, numPrims int) *stream {
	s := &stream{
		screen: screen,
		rng:    rand.New(rand.NewSource(spec.Seed*1_000_003 + int64(frameIdx))),
		w:      float64(screen.Width),
		h:      float64(screen.Height),
		drift:  float64(float32(frameIdx) * 7),
		attrs:  spec.MeanAttrs,
		record: numPrims > 0,
		cands:  make([]candidate, 0, max(numPrims, 1)),
	}
	if !s.record {
		s.cands = s.cands[:1]
	}
	rng, w, h := s.rng, s.w, s.h
	var r [6]float64
	var depth [3]float32

	// Background layer, drawn first (painter's order): a full-screen quad
	// (two triangles) at maximum depth — most games paint a backdrop or
	// skybox over the whole screen, which is what gives frames their ~full
	// screen coverage and overdraw of 1.5-3x. Very-low-reuse titles (DDS,
	// Snp: Table II re-use < 2) cannot contain a 1488-tile primitive in
	// their reuse budget; those games clear the backdrop instead of
	// drawing it (a free operation in a TBR GPU's on-chip Color Buffer).
	// Its vertices' draws are discarded; only the attribute count stays.
	if spec.AvgPrimReuse >= 2 {
		fullscreen := [2][3]geom.Vec2{
			{{X: -1, Y: -1}, {X: float32(w) + 1, Y: -1}, {X: -1, Y: float32(h) + 1}},
			{{X: float32(w) + 1, Y: float32(h) + 1}, {X: float32(w) + 1, Y: -1}, {X: -1, Y: float32(h) + 1}},
		}
		for _, pos := range fullscreen {
			p := geom.Primitive{ID: uint32(len(s.head)), Pos: pos}
			p.NumAttrs = s.drawVertices(&r, &depth)
			p.Depth = [3]float32{0.999, 0.999, 0.999} // behind everything
			s.addHead(p)
		}
	}
	// 3D scenes add a couple of large mid-ground planes (terrain).
	if planes {
		for i := 0; i < 2+rng.Intn(2); i++ {
			cx, cy := w*(0.25+rng.Float64()/2), h*(0.25+rng.Float64()/2)
			span := 0.4 + rng.Float64()*0.5
			p := geom.Primitive{ID: uint32(len(s.head))}
			p.NumAttrs = s.drawVertices(&r, &depth)
			place(&p, cx, cy, span*w, span*h, &r)
			for v := range p.Depth {
				p.Depth[v] = 0.9 + rng.Float32()*0.05
			}
			s.addHead(p)
		}
	}
	return s
}

func (s *stream) addHead(p geom.Primitive) {
	s.head = append(s.head, p)
	s.headOverlaps += s.tiles(&p)
}

// tiles returns the number of tiles p overlaps.
func (s *stream) tiles(p *geom.Primitive) int {
	s.buf = s.screen.OverlappedTiles(p, s.buf[:0])
	return len(s.buf)
}

// pass builds a frame of numPrims primitives at the given size scale into
// prims (reusing its storage) and returns it with its total tile overlap
// count, the sum of len(OverlappedTiles) over the kept primitives. One
// OverlappedTiles pass per candidate serves both the off-screen cull and
// that count.
func (s *stream) pass(prims []geom.Primitive, numPrims int, sizeScale float64) ([]geom.Primitive, int) {
	if cap(prims) < numPrims {
		prims = make([]geom.Primitive, 0, numPrims)
	}
	prims = append(prims[:0], s.head...)
	overlaps := s.headOverlaps
	for i := 0; len(prims) < numPrims; i++ {
		p := s.candidate(i).build(sizeScale, uint32(len(prims)))
		n := s.tiles(&p)
		if n == 0 {
			continue // fully off-screen; the Tiling Engine would cull it
		}
		overlaps += n
		prims = append(prims, p)
	}
	return prims, overlaps
}

// candidate returns the stream's i-th foreground candidate, drawing it
// when no pass has yet.
func (s *stream) candidate(i int) *candidate {
	if !s.record {
		s.draw(&s.cands[0])
		return &s.cands[0]
	}
	if i == len(s.cands) {
		s.cands = append(s.cands, candidate{})
		s.draw(&s.cands[i])
	}
	return &s.cands[i]
}

// draw draws the next foreground candidate into c. Primitives arrive mesh
// by mesh, the way applications submit draw calls. Each mesh is a run of
// consecutive primitives around a drifting anchor, so program order has
// the spatial locality the Polygon List Builder exploits at memory-block
// granularity (§III-C1: 16 PMDs share a block, and consecutive primitives
// of a mesh bin into the same tiles).
func (s *stream) draw(c *candidate) {
	rng, w, h := s.rng, s.w, s.h
	sigma := 0.8
	if s.meshLeft == 0 {
		s.meshLeft = 8 + rng.Intn(48)
		s.mx = rng.Float64() * w
		s.my = rng.Float64() * h
	}
	s.meshLeft--
	// The anchor walks a little per primitive (triangle strips).
	s.mx += rng.NormFloat64() * w / 64
	s.my += rng.NormFloat64() * h / 64
	c.cx = math.Mod(math.Abs(s.mx+s.drift), w)
	c.cy = math.Mod(math.Abs(s.my), h)
	c.ex = math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
	// Shape mixture. Real game geometry is not uniformly compact: roads,
	// walls and UI strips are long and thin (their tiles are scattered
	// across the traversal, stretching reuse distances), and occasional
	// large props cover many tiles. This mixture is what gives the
	// Parameter Buffer stream its LRU-hostile reuse pattern; the
	// calibration loop keeps the *mean* re-use at the Table II target
	// regardless.
	switch roll := rng.Intn(10); {
	case roll < 3:
		// Elongated sliver at an arbitrary angle (roads, walls, beams,
		// skid marks). Diagonal slivers cross many Z-order quadrants, so
		// their tile visits are spread across the whole traversal — the
		// long-reuse-distance component of real scenes that separates
		// OPT from LRU. Its vertex position draws are discarded.
		c.shape = shapeSliver
		c.r[0] = 8 + rng.Float64()*24
		theta := rng.Float64() * math.Pi
		c.r[1], c.r[2] = math.Cos(theta), math.Sin(theta)
		var discard [6]float64
		c.attrs = s.drawVertices(&discard, &c.depth)
	case roll < 4: // large prop
		c.shape = shapeProp
		c.attrs = s.drawVertices(&c.r, &c.depth)
	default:
		c.shape = shapeTriangle
		c.attrs = s.drawVertices(&c.r, &c.depth)
	}
}

// drawVertices draws one primitive's three vertices — the raw position
// draws x, y and a depth each — and its attribute count, an integer around
// MeanAttrs in [1, 15] so that the mean over many primitives matches the
// spec. It still draws the nine random values (x, y, z of each of three
// vertices) that each attribute's payload once took, and discards them:
// nothing reads an attribute's value, but the draws keep the random
// stream, and so every scene, as it was when primitives carried them.
func (s *stream) drawVertices(pos *[6]float64, depth *[3]float32) uint8 {
	rng := s.rng
	for i := 0; i < 3; i++ {
		pos[2*i] = rng.Float64()
		pos[2*i+1] = rng.Float64()
		depth[i] = float32(rng.Float64())
	}
	n := int(s.attrs)
	frac := s.attrs - float64(n)
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
	for i := 0; i < 9*n; i++ {
		rng.Float32()
	}
	return uint8(n)
}

// build rebuilds candidate c as primitive id at the given size scale.
func (c *candidate) build(sizeScale float64, id uint32) geom.Primitive {
	p := geom.Primitive{ID: id, Depth: c.depth, NumAttrs: c.attrs}
	size := sizeScale * c.ex
	switch c.shape {
	case shapeSliver:
		// A long thin triangle centered near the anchor, along the
		// candidate's angle; the perpendicular gives its width.
		length, width := size*c.r[0], size*0.3
		dx, dy := c.r[1], c.r[2]
		px, py := -dy, dx
		p.Pos[0] = geom.Vec2{X: float32(c.cx - dx*length/2), Y: float32(c.cy - dy*length/2)}
		p.Pos[1] = geom.Vec2{X: float32(c.cx + dx*length/2), Y: float32(c.cy + dy*length/2)}
		p.Pos[2] = geom.Vec2{X: float32(c.cx + px*width), Y: float32(c.cy + py*width)}
	case shapeProp:
		place(&p, c.cx, c.cy, size*2.5, size*2.5, &c.r)
	default:
		place(&p, c.cx, c.cy, size, size, &c.r)
	}
	return p
}

// place positions p's vertices around (cx, cy) from their raw draws r,
// within extents (sx, sy).
func place(p *geom.Primitive, cx, cy, sx, sy float64, r *[6]float64) {
	for i := 0; i < 3; i++ {
		p.Pos[i] = geom.Vec2{
			X: float32(cx + (r[2*i]-0.5)*sx),
			Y: float32(cy + (r[2*i+1]-0.5)*sy),
		}
	}
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
