package gpu

import (
	"errors"
	"fmt"
	"strconv"

	"tcor/internal/cache"
	"tcor/internal/dram"
	"tcor/internal/energy"
	"tcor/internal/geom"
	"tcor/internal/l2"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/pbuffer"
	"tcor/internal/raster"
	"tcor/internal/stats"
	"tcor/internal/tcor"
	"tcor/internal/tiling"
	"tcor/internal/workload"
)

// Result carries everything the paper's figures report for one run.
type Result struct {
	Benchmark string
	Kind      TileCacheKind
	Frames    int

	// L2In counts requests arriving at the L2 from all the L1 caches, by
	// region (Figs. 14/15 use the Parameter Buffer slice).
	L2In *mem.Counter
	// DRAMCounts counts main-memory accesses by region, including the
	// Color Buffer flush traffic that bypasses the L2 (Figs. 16-19).
	DRAM      dram.Stats
	DRAMIn    *mem.Counter
	L2Stats   l2.Stats
	AttrStats tcor.AttrStats
	ListStats tcor.ListStats
	// TileStats are the baseline tile cache's counters. Its Writebacks
	// include the dirty lines the frame-end flush drops with the recycled
	// Parameter Buffer, which never reach the L2; TileL2Writes counts the
	// write-backs the L2 receives.
	TileStats cache.Stats
	// TileL2Reads/Writes are the L2 requests the baseline tile cache
	// issued (fetches and write-backs).
	TileL2Reads, TileL2Writes int64
	VertexStats               cache.Stats
	// VertexL2Reads counts the Vertex Cache's fill requests to the L2.
	VertexL2Reads int64
	RasterStats   raster.Stats
	// InstrL2Reads counts the per-frame shader-program streaming fills into
	// the instruction caches (the only L2 ingress not owned by a counted L1).
	InstrL2Reads int64
	// L2Enhanced records whether the run used the dead-line L2 replacement,
	// so invariant checks on a bare Result know which identities apply.
	L2Enhanced bool
	// L2Trace holds the last Config.L2TraceDepth L2 evictions (nil when the
	// trace is off).
	L2Trace *stats.Ring

	// Tiling Engine throughput (Figs. 23/24): primitive reads issued by
	// the Tile Fetcher over the cycles it spent, with an unlimited output
	// queue (the Rasterizer never back-pressures it in this measurement).
	TFCycles  int64
	PrimReads int64

	// Whole-frame timing.
	GeomCycles, PLBCycles, RasterCycles int64
	FrameCycles                         int64

	// PerFrame breaks the run down frame by frame (animation makes frames
	// differ; FPS stability studies need the distribution, not the mean).
	PerFrame []FrameStats

	// Energy (picojoules, summed over frames).
	Tally          *energy.Tally
	MemHierarchyPJ float64
	TotalPJ        float64
}

// FrameStats is the per-frame slice of the run.
type FrameStats struct {
	Frame      int
	PrimReads  int64
	TFCycles   int64
	TileCycles int64 // sum over tiles of max(fetch, raster)
	DRAMReads  int64
	DRAMWrites int64
}

// PPC returns the Tile Fetcher's primitives per cycle.
func (r *Result) PPC() float64 {
	if r.TFCycles == 0 {
		return 0
	}
	return float64(r.PrimReads) / float64(r.TFCycles)
}

// FPS returns frames per second under the Table I clock.
func (r *Result) FPS(clockHz float64) float64 {
	if r.FrameCycles == 0 {
		return 0
	}
	return clockHz / (float64(r.FrameCycles) / float64(r.Frames))
}

// Simulate runs every frame of the scene through the configured GPU. It is
// SimulateGroup's one-configuration case.
func Simulate(scene *workload.Scene, cfg Config) (*Result, error) {
	res, err := SimulateGroup(scene, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SimulateGroup runs every frame of the scene through each configuration
// and returns the results in configuration order. The configurations step
// through the scene in lockstep, frame by frame and tile by tile, and share
// the work their results cannot tell apart, at two levels:
//
//   - The whole group shares the work that depends only on the scene, the
//     screen, the traversal order, the frame and the tile. Each frame is
//     binned once. Each tile is planned once (raster.PlanTile) and its
//     texture taps are filtered once, through the first configuration's
//     texture caches (raster.FilterTextures). The texture caches read no
//     L2 state and every configuration's raster.Config is the same, so
//     every configuration's texture caches would filter the same tap
//     stream the same way; the others never build texture caches.
//   - Configurations whose fields are equal outside the back end share a
//     front end (Config.frontEndKey forms the key): the Vertex Cache, the
//     Tiling Engine L1s, the output queue, and the PLB and Tile Fetcher
//     replays. None of them reads L2 or DRAM state, so they issue one L2
//     request stream for every such configuration. The front end sends
//     each request to every member's back end. Primitive List Cache
//     requests reach a back end whose L2 is not enhanced untagged, as a
//     solo run's list cache (TagLastUse off) sends them.
//
// Each configuration keeps its own back end: the L2 and the tee that
// counts its ingress, DRAM, the commit of each filtered plan
// (raster.CommitFiltered) and the cycle accounting, which charges every
// L1 operation the stall penalty of that configuration's own L2 and DRAM.
// Each back end sees exactly the event order its configuration sees
// alone, so results[i] is byte-identical to Simulate(scene, cfgs[i]).
//
// All configurations must share Screen and Order. Grouping is the caller's
// job: a group that mixes screens or orders is an error.
func SimulateGroup(scene *workload.Scene, cfgs []Config) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("gpu: empty configuration group")
	}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			if len(cfgs) > 1 {
				err = fmt.Errorf("gpu: group configuration %d: %w", i, err)
			}
			return nil, err
		}
		if a, b := cfgs[i], cfgs[0]; a.Screen != b.Screen || a.Order != b.Order {
			return nil, fmt.Errorf("gpu: group configuration %d (screen %+v, %s order) differs from configuration 0 (screen %+v, %s order); a group needs one screen and traversal order",
				i, a.Screen, a.Order, b.Screen, b.Order)
		}
	}
	g, err := newGroup(scene, cfgs)
	if err != nil {
		return nil, err
	}
	for f := 0; f < scene.NumFrames(); f++ {
		if err := g.runFrame(f); err != nil {
			return nil, err
		}
	}
	out := make([]*Result, len(g.backs))
	for i, b := range g.backs {
		out[i] = b.finish()
	}
	return out, nil
}

// group steps its configurations through a scene in lockstep: one back end
// per configuration, one front end per front-end key, and the frame and
// tile work they all share.
type group struct {
	scene  *workload.Scene
	trav   *tiling.Traversal
	fronts []*frontEnd // in the order of their first configurations
	backs  []*backEnd  // in configuration order

	// The current frame (set by runFrame).
	frame   int
	prims   []geom.Primitive
	binning *tiling.Binning

	// The current tile's raster plan: the first front end's TileDone plans
	// and filters it, every back end commits it.
	work    []raster.TileWork
	scratch *raster.PlanScratch
	plan    raster.TilePlan
}

func newGroup(scene *workload.Scene, cfgs []Config) (*group, error) {
	trav, err := tiling.NewTraversal(cfgs[0].Screen, cfgs[0].Order)
	if err != nil {
		return nil, err
	}
	g := &group{scene: scene, trav: trav, backs: make([]*backEnd, len(cfgs))}
	front := make(map[Config]int)
	var members [][]*backEnd
	for i, cfg := range cfgs {
		if g.backs[i], err = newBackEnd(scene, cfg); err != nil {
			return nil, err
		}
		key := cfg.frontEndKey()
		k, ok := front[key]
		if !ok {
			k = len(members)
			front[key] = k
			members = append(members, nil)
		}
		members[k] = append(members[k], g.backs[i])
	}
	for _, backs := range members {
		f, err := newFrontEnd(g, backs)
		if err != nil {
			return nil, err
		}
		g.fronts = append(g.fronts, f)
	}
	g.scratch = g.backs[0].rasterPipe.NewScratch()
	return g, nil
}

// runFrame pushes one frame through every front end, stage by stage: each
// front end's geometry, one binning, each front end's PLB replay, then the
// tiles in traversal order (every front end's Tile Fetcher replay and
// raster of a tile before the next tile), then each front end's frame end.
//
// When a tracer is configured, each configuration's frame emits a span
// tree — frame > {geometry, binning, tiles > tile...} — whose wall-clock
// durations attribute simulator time to pipeline phases (the trace never
// feeds back into simulated cycles). Shared work is recorded once: the
// binning and each tile's plan in the group's first configuration's spans,
// and each front end's geometry in its first configuration's frame span.
func (g *group) runFrame(f int) error {
	g.frame, g.prims = f, g.scene.Frame(f).Prims
	for _, fe := range g.fronts {
		fe.beginFrame()
	}
	lead := g.backs[0]
	bsp := lead.frameSpan.Child("binning", "gpu")
	binning, err := tiling.Bin(lead.cfg.Screen, g.trav, g.prims)
	bsp.End()
	if err != nil {
		for _, b := range g.backs {
			b.frameSpan.End()
		}
		return err
	}
	g.binning = binning
	for _, fe := range g.fronts {
		fe.replayPLB()
	}
	for pos := range binning.Traversal.Seq {
		for _, fe := range g.fronts {
			tiling.ReplayTile(binning, fe.listLayout, fe.attrLayout, pos, fe)
		}
	}
	for _, fe := range g.fronts {
		fe.endFrame()
	}
	g.binning = nil // garbage before the next frame is binned
	return nil
}

// planTile plans the current tile into the shared plan and filters its
// texture taps through the first configuration's texture caches. A plan
// depends only on the scene, the screen, the frame and the tile, and every
// back end's Raster Pipeline is built from the same raster.Config
// (newBackEnd derives it from the scene and the screen alone), so one plan
// serves all. For the same reason every back end's texture caches would
// see the same tap stream from the same state, so one filter serves all
// too: the other back ends never build texture caches, and their texture
// statistics come from the filtered plans they commit.
func (g *group) planTile(tile geom.TileID) {
	work := g.work[:0]
	for _, e := range g.binning.Lists[tile] {
		work = append(work, raster.TileWork{Prim: &g.prims[e.Prim]})
	}
	g.work = work
	pipe := g.backs[0].rasterPipe
	pipe.PlanTile(tile, g.frame, work, g.scratch, &g.plan)
	pipe.FilterTextures(&g.plan)
}

// teeSink counts requests by region and forwards them.
type teeSink struct {
	*mem.Counter
	next mem.Sink
}

func newTee(next mem.Sink) *teeSink {
	return &teeSink{Counter: mem.NewCounter(), next: next}
}

func (t *teeSink) Access(r mem.Request) {
	t.Counter.Access(r)
	t.next.Access(r)
}

func (t *teeSink) TileRetired(pos uint16, tile geom.TileID) { t.next.TileRetired(pos, tile) }
func (t *teeSink) EndFrame()                                { t.next.EndFrame() }

// fanOut is a front end's next level when it serves several back ends: it
// sends every request to each back end's L2 tee, in configuration order.
// With untag set it is the Primitive List Cache's next level, and strips
// the last-use tag from requests bound for an L2 without the enhancements:
// the L2 records a tag in its lines (and eviction trace) whether or not it
// replaces by it, and a solo run's list cache tags only for an enhanced L2.
type fanOut struct {
	backs []*backEnd
	untag bool
}

func (o *fanOut) Access(r mem.Request) {
	for _, b := range o.backs {
		if o.untag && !b.cfg.L2Enhanced {
			b.l2in.Access(mem.Request{Addr: r.Addr, Write: r.Write})
			continue
		}
		b.l2in.Access(r)
	}
}

func (o *fanOut) TileRetired(pos uint16, tile geom.TileID) {
	for _, b := range o.backs {
		b.l2in.TileRetired(pos, tile)
	}
}

func (o *fanOut) EndFrame() {
	for _, b := range o.backs {
		b.l2in.EndFrame()
	}
}

// frontEnd is the part of the machine that configurations equal outside
// their back ends share: the Geometry Pipeline's Vertex Cache and the
// Tiling Engine, with its L1s, its output queue and its PLB and Tile
// Fetcher replays. It is the tiling.Handler of its configurations. Its L1s
// send their L2 requests to every back end, and it charges each L1
// operation to every back end's cycle accounts.
type frontEnd struct {
	cfg   Config // the first member's; every member's front-end fields are equal
	group *group
	backs []*backEnd

	// l2 is the L1s' next level: the one back end's L2 tee, or a fanOut
	// over every back end's.
	l2 mem.Sink

	// Tiling Engine L1s: exactly one of (tile) or (lists, attrs) is set.
	tile      *cache.WriteBackLRU // baseline unified Tile Cache
	tileStats struct {
		reads, writes, l2Reads, l2Writes int64
	}
	lists *tcor.PrimitiveListCache
	attrs *tcor.AttributeCache

	vertex        *cache.FlatLRU
	vertexL2Reads int64

	listLayout pbuffer.ListLayout
	attrLayout pbuffer.AttrLayout

	// primReads counts the Tile Fetcher's primitive reads; framePrimReads
	// is its value when the current frame began.
	primReads, framePrimReads int64

	// traceTiles reports whether any back end records per-tile spans.
	traceTiles bool

	// TCOR output queue: primitives locked until the Rasterizer consumes
	// them.
	queue []uint32
}

func newFrontEnd(g *group, backs []*backEnd) (*frontEnd, error) {
	cfg := backs[0].cfg
	f := &frontEnd{cfg: cfg, group: g, backs: backs}
	tagLastUse := false
	for _, b := range backs {
		b.front = f
		tagLastUse = tagLastUse || b.cfg.L2Enhanced
		f.traceTiles = f.traceTiles || b.cfg.Tracer != nil && b.cfg.TraceTiles
	}
	f.l2 = backs[0].l2in
	listNext := f.l2
	if len(backs) > 1 {
		f.l2 = &fanOut{backs: backs}
		listNext = &fanOut{backs: backs, untag: tagLastUse}
	}

	var err error
	switch cfg.Kind {
	case KindBaseline:
		f.tile, err = cache.NewWriteBackLRU(cache.Config{
			Lines:         cache.LinesFor(cfg.TileCacheBytes, memmap.BlockBytes),
			Ways:          cfg.TileCacheWays,
			WriteAllocate: true,
		})
		if err != nil {
			return nil, fmt.Errorf("gpu: tile cache: %w", err)
		}
	case KindTCOR:
		lcfg := tcor.DefaultListCacheConfig()
		lcfg.TagLastUse = tagLastUse
		f.lists, err = tcor.NewPrimitiveListCache(lcfg, listNext)
		if err != nil {
			return nil, err
		}
		acfg := tcor.DefaultAttrCacheConfig(cfg.TileCacheBytes - lcfg.SizeBytes)
		acfg.XORIndex = cfg.XORIndex
		acfg.WriteBypass = cfg.WriteBypass
		f.attrs, err = tcor.NewAttributeCache(acfg, f.l2)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("gpu: unknown tile cache kind %d", cfg.Kind)
	}

	// The Vertex Cache is only read.
	f.vertex, err = cache.NewFlatLRU(cache.Config{
		Lines: cache.LinesFor(cfg.VertexCacheBytes, memmap.BlockBytes),
		Ways:  cfg.VertexCacheWays,
	})
	if err != nil {
		return nil, fmt.Errorf("gpu: vertex cache: %w", err)
	}

	if cfg.InterleavedLists {
		f.listLayout = pbuffer.NewInterleavedListLayout(cfg.Screen.NumTiles())
	} else {
		f.listLayout = pbuffer.NewBaselineListLayout(cfg.Screen.NumTiles())
	}
	f.attrLayout = pbuffer.NewAttrLayout()
	return f, nil
}

// backEnd is one configuration's own part of the machine: the L2 behind
// its ingress tee, DRAM, the Raster Pipeline that commits the group's
// filtered plans, and the cycle accounting. It also holds the
// configuration's spans and Result.
type backEnd struct {
	cfg   Config
	front *frontEnd

	dramDev    *dram.DRAM
	l2c        *l2.Cache
	l2in       *teeSink    // in front of the L2: counts all L1->L2 traffic
	l2trace    *stats.Ring // bounded L2 eviction trace (nil when off)
	rasterPipe *raster.Pipeline

	// probe is taken by frontEnd.mark before each L1 operation.
	probe penaltyProbe

	// The current frame's accounts (reset by openTiles). Per-traversal-
	// position Tile Fetcher and Raster cycles are reused across frames
	// (reset, never reallocated once warm).
	dramBefore         dram.Stats
	plbCycles          int64
	tileTF, tileRaster []int64
	curTF              int64

	// frameSpan and tilesSpan are the current frame's spans; tileSpan is
	// the span of the tile currently streaming through the Tile Fetcher
	// (begun lazily at its first fetch event, ended in tileDone). All nil
	// when tracing is off.
	frameSpan, tilesSpan, tileSpan *stats.Span

	res Result
}

func newBackEnd(scene *workload.Scene, cfg Config) (*backEnd, error) {
	b := &backEnd{cfg: cfg}
	var err error
	b.dramDev, err = dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	b.l2c, err = l2.New(cfg.L2, b.dramDev)
	if err != nil {
		return nil, err
	}
	b.l2in = newTee(b.l2c)
	if cfg.L2TraceDepth > 0 {
		b.l2trace = stats.NewRing(cfg.L2TraceDepth)
		b.l2c.SetEvictionTrace(b.l2trace)
	}

	b.rasterPipe, err = raster.New(RasterConfig(scene.Spec, cfg.Screen), b.l2in, b.dramDev)
	if err != nil {
		return nil, err
	}

	b.res.Benchmark = scene.Spec.Alias
	b.res.Kind = cfg.Kind
	return b, nil
}

// RasterConfig is the Raster Pipeline configuration Simulate renders a
// scene of this spec with on this screen: the Table I pipeline with the
// spec's texture footprint and shader cost.
func RasterConfig(spec workload.Spec, screen geom.Screen) raster.Config {
	rcfg := raster.DefaultConfig(screen, int64(spec.TextureMiB*1024*1024), spec.ShaderInstrPerPixel)
	// 3D titles carry some alpha-blended effects (particles, glass, UI
	// overlays); a modest deterministic share exercises the Blending unit.
	if spec.ThreeD {
		rcfg.TranslucentFraction = 0.05
	}
	return rcfg
}

// penaltyProbe is where a back end's L2 and DRAM read counters stood
// before an L1 operation.
type penaltyProbe struct {
	l2Reads, dramReadCycles int64
}

// mark probes every back end before an L1 operation.
func (f *frontEnd) mark() {
	for _, b := range f.backs {
		b.probe = penaltyProbe{
			l2Reads:        b.l2in.Reads,
			dramReadCycles: b.dramDev.Stats().ReadCycles,
		}
	}
}

// penalty measures the stall cycles the L1 operation since the last mark
// incurred in this back end, from the L2/DRAM traffic it generated, scaled
// by the MSHR overlap factor.
func (b *backEnd) penalty() int64 {
	l2 := (b.l2in.Reads - b.probe.l2Reads) * int64(b.cfg.Timing.L2Cycles)
	dr := b.dramDev.Stats().ReadCycles - b.probe.dramReadCycles
	return (l2 + dr) / int64(b.cfg.Timing.MSHROverlap)
}

// chargeTF charges every back end's Tile Fetcher the L1 operation since
// the last mark: extra cycles, the L1 latency and the stall penalty.
func (f *frontEnd) chargeTF(extra int64) {
	for _, b := range f.backs {
		b.curTF += extra + int64(b.cfg.Timing.L1Cycles) + b.penalty()
	}
}

// chargePLB charges every back end's Polygon List Builder the L1 write
// since the last mark: extra cycles and the L1 latency. Writes drain
// through a write buffer, so miss handling is off the critical path; only
// write-buffer pressure (an eighth of the stall penalty) throttles the
// builder.
func (f *frontEnd) chargePLB(extra int64) {
	for _, b := range f.backs {
		b.plbCycles += extra + int64(b.cfg.Timing.L1Cycles) + b.penalty()/8
	}
}

// beginFrame opens the current frame in every back end and runs the
// Geometry Pipeline: vertex fetch and vertex shading.
func (f *frontEnd) beginFrame() {
	g := f.group
	for _, b := range f.backs {
		b.beginFrame(g.frame)
	}
	gsp := f.backs[0].frameSpan.Child("geometry", "gpu")
	f.geometry(g.prims)
	gsp.SetAttr("prims", strconv.Itoa(len(g.prims)))
	gsp.End()
}

// beginFrame opens frame f's top span: a child of cfg.TraceParent when the
// caller threaded one through (the frame then joins the caller's trace),
// else a fresh root trace. Nil-safe: with tracing off the span is nil.
func (b *backEnd) beginFrame(f int) {
	if p := b.cfg.TraceParent; p != nil {
		b.frameSpan = p.Child("frame", "gpu")
	} else {
		b.frameSpan = b.cfg.Tracer.Begin("frame", "gpu")
	}
	b.frameSpan.SetAttr("frame", strconv.Itoa(f))
	b.dramBefore = b.dramDev.Stats()
}

// replayPLB opens the frame's tile phase on the binned frame and replays
// the Tiling Engine's phase 1, the PLB.
func (f *frontEnd) replayPLB() {
	for _, b := range f.backs {
		b.plbCycles = 0
		b.tileTF, b.tileRaster = b.tileTF[:0], b.tileRaster[:0]
		b.tilesSpan = b.frameSpan.Child("tiles", "gpu")
	}
	tiling.ReplayPLB(f.group.binning, f.listLayout, f.attrLayout, f)
}

// endFrame closes the frame once every tile is done: the front end
// unlocks the primitives still in the TCOR output queue and recycles the
// Parameter Buffer (its L1s drop their lines without sending anything to
// the L2), and then every back end closes its frame.
func (f *frontEnd) endFrame() {
	for _, p := range f.queue {
		f.attrs.Unlock(p)
	}
	f.queue = f.queue[:0]
	switch f.cfg.Kind {
	case KindBaseline:
		f.tile.FlushAll() // PB-only cache; drop without write-back
	case KindTCOR:
		f.lists.EndFrame()
		f.attrs.EndFrame()
	}
	primReads := f.primReads - f.framePrimReads
	f.framePrimReads = f.primReads
	for _, b := range f.backs {
		b.endFrame(f.group.frame, primReads)
	}
}

// endFrame closes the back end's frame: the per-tile timing overlap, the
// shader program fills and the frame's statistics.
func (b *backEnd) endFrame(frame int, primReads int64) {
	b.res.PLBCycles += b.plbCycles
	b.tilesSpan.End()

	// Per-tile overlap of Tile Fetcher and Raster Pipeline: the stages are
	// decoupled by the output queue, so the frame pays the slower of the
	// two per tile.
	fs := FrameStats{Frame: frame, PrimReads: primReads}
	for i := range b.tileTF {
		tf, rs := b.tileTF[i], b.tileRaster[i]
		if tf > rs {
			fs.TileCycles += tf
		} else {
			fs.TileCycles += rs
		}
		fs.TFCycles += tf
		b.res.RasterCycles += rs
	}
	b.res.FrameCycles += fs.TileCycles

	// Shader program fills: each frame streams the vertex and fragment
	// programs into the instruction caches once.
	b.instrFills()

	b.l2in.EndFrame()
	b.rasterPipe.EndFrame()
	dramAfter := b.dramDev.Stats()
	fs.DRAMReads = dramAfter.Reads - b.dramBefore.Reads
	fs.DRAMWrites = dramAfter.Writes - b.dramBefore.Writes
	b.res.PerFrame = append(b.res.PerFrame, fs)
	b.res.Frames++
	b.frameSpan.End()
}

// geometry models the Vertex Fetcher and Vertex Stage: each primitive
// fetches three 16-byte vertices from the input geometry stream through the
// Vertex Cache, then runs the vertex program.
func (f *frontEnd) geometry(prims []geom.Primitive) {
	for i := range prims {
		for v := 0; v < 3; v++ {
			addr := memmap.InputGeometryBase + uint64(i*3+v)*16
			f.mark()
			if !f.vertex.Read(memmap.Block(addr)) {
				f.vertexL2Reads++
				f.l2.Access(mem.Request{Addr: addr &^ (memmap.BlockBytes - 1)})
			}
			for _, b := range f.backs {
				b.res.GeomCycles += int64(b.cfg.Timing.L1Cycles) + b.penalty()
			}
		}
	}
	for _, b := range f.backs {
		shade := int64(b.cfg.Timing.VertexInstr) * 3 / 4 // 4-lane vertex shading
		b.res.GeomCycles += int64(len(prims)) * shade
	}
}

// instrFills charges the per-frame shader-program streaming into the
// instruction caches from the L2.
func (b *backEnd) instrFills() {
	for i := int64(0); i < b.rasterPipe.InstrFootprintBlocks(); i++ {
		b.res.InstrL2Reads++
		b.l2in.Access(mem.Request{Addr: memmap.FragShaderInstrBase + uint64(i)*memmap.BlockBytes})
	}
	vblocks := int64(b.cfg.Timing.VertexInstr) * 16 / memmap.BlockBytes
	for i := int64(0); i <= vblocks; i++ {
		b.res.InstrL2Reads++
		b.l2in.Access(mem.Request{Addr: memmap.VertexShaderInstrBase + uint64(i)*memmap.BlockBytes})
	}
}

// tileAccess routes one block-granularity Tiling Engine access to the
// correct L1. The caller marks before it and charges after it.
func (f *frontEnd) tileAccess(addr uint64, write bool, tilePos uint16) {
	switch f.cfg.Kind {
	case KindBaseline:
		if write {
			f.tileStats.writes++
		} else {
			f.tileStats.reads++
		}
		_, res := f.tile.Access(memmap.Block(addr), write)
		if res.Evicted && res.VictimDirty {
			f.tileStats.l2Writes++
			f.l2.Access(mem.Request{Addr: memmap.BlockAddr(uint64(res.Victim)), Write: true})
		}
		// Read misses fetch. Write misses fetch when the write is partial:
		// a PMD appended mid-block must merge with the PMDs already there,
		// and a 48-byte attribute store into a 64-byte line is partial by
		// construction (Fig. 4) — this fetch-on-attribute-write is
		// precisely the overhead TCOR's primitive-granularity Attribute
		// Buffer avoids. Only first-PMD writes (block-aligned PB-Lists
		// addresses) allocate without a fetch.
		partial := addr%memmap.BlockBytes != 0 ||
			memmap.RegionOf(addr) == memmap.RegionPBAttributes
		if !res.Hit && (!write || partial) {
			f.tileStats.l2Reads++
			f.l2.Access(mem.Request{Addr: addr &^ (memmap.BlockBytes - 1)})
		}
	case KindTCOR:
		f.lists.Access(addr, write, tilePos)
	}
}

// ListWrite implements tiling.Handler. Binning work is the overlap test
// and append (~2 cycles per PMD) plus the L1 write.
func (f *frontEnd) ListWrite(addr uint64, tile geom.TileID) {
	f.mark()
	f.tileAccess(addr, true, f.group.trav.Pos[tile])
	f.chargePLB(2)
}

// AttrWrite implements tiling.Handler.
func (f *frontEnd) AttrWrite(prim uint32, numAttrs uint8, firstUse, lastUse uint16, blocks []uint64) {
	switch f.cfg.Kind {
	case KindBaseline:
		for _, b := range blocks {
			f.mark()
			f.tileAccess(b, true, lastUse)
			f.chargePLB(0)
		}
	case KindTCOR:
		f.mark()
		f.attrs.Write(prim, numAttrs, firstUse, lastUse, blocks)
		f.chargePLB(0)
	}
}

// beginTileSpans lazily opens the current tile's span in every back end
// that records per-tile spans, at the tile's first Tile Fetcher event.
// Per-tile spans are gated on cfg.TraceTiles (see the knob's doc for why);
// traceTiles keeps the disabled path to one branch.
func (f *frontEnd) beginTileSpans() {
	if !f.traceTiles {
		return
	}
	for _, b := range f.backs {
		if b.cfg.Tracer != nil && b.cfg.TraceTiles && b.tileSpan == nil {
			b.tileSpan = b.tilesSpan.Child("tile", "gpu")
		}
	}
}

// ListRead implements tiling.Handler.
func (f *frontEnd) ListRead(addr uint64, tile geom.TileID) {
	f.beginTileSpans()
	f.mark()
	f.tileAccess(addr, false, f.group.trav.Pos[tile])
	f.chargeTF(0)
}

// PrimRead implements tiling.Handler.
func (f *frontEnd) PrimRead(prim uint32, numAttrs uint8, optNum, lastUse uint16, blocks []uint64, tile geom.TileID) {
	f.beginTileSpans()
	f.primReads++
	switch f.cfg.Kind {
	case KindBaseline:
		// The baseline Tile Fetcher reads each attribute block through the
		// Tile Cache and copies the attributes out.
		pos := f.group.trav.Pos[tile]
		for _, b := range blocks {
			f.mark()
			f.tileAccess(b, false, pos)
			f.chargeTF(0)
		}
	case KindTCOR:
		f.mark()
		var drains int64 // one-cycle drain steps
		res := f.attrs.Read(prim, numAttrs, optNum, lastUse, blocks)
		for res.Stalled {
			if len(f.queue) == 0 {
				// Cannot happen: queue empty means nothing locked.
				for _, b := range f.backs {
					b.curTF += drains
				}
				return
			}
			// Rasterizer consumes the oldest in-flight primitive.
			f.attrs.Unlock(f.queue[0])
			f.queue = f.queue[1:]
			drains++
			res = f.attrs.Read(prim, numAttrs, optNum, lastUse, blocks)
		}
		f.queue = append(f.queue, prim)
		if len(f.queue) > f.cfg.OutputQueueDepth {
			f.attrs.Unlock(f.queue[0])
			f.queue = f.queue[1:]
		}
		f.chargeTF(drains)
	}
}

// TileDone implements tiling.Handler: every back end closes out the tile's
// Tile Fetcher cycle count, rasterizes the tile and signals retirement to
// its L2. The group's first front end plans the tile and filters its
// texture taps; every back end commits that one filtered plan.
func (f *frontEnd) TileDone(tile geom.TileID, pos uint16) {
	f.beginTileSpans() // an empty tile still gets a (zero-fetch) span
	g := f.group
	if f == g.fronts[0] {
		g.planTile(tile)
	}
	for _, b := range f.backs {
		b.tileDone(tile, pos, &g.plan, len(g.binning.Lists[tile]))
	}
}

func (b *backEnd) tileDone(tile geom.TileID, pos uint16, plan *raster.TilePlan, prims int) {
	rc := b.rasterPipe.CommitFiltered(plan)
	b.tileTF = append(b.tileTF, b.curTF)
	b.tileRaster = append(b.tileRaster, rc)
	b.res.TFCycles += b.curTF
	if sp := b.tileSpan; sp != nil {
		sp.SetAttr("tile", strconv.Itoa(int(tile)))
		sp.SetAttr("prims", strconv.Itoa(prims))
		sp.SetAttr("tfCycles", strconv.FormatInt(b.curTF, 10))
		sp.SetAttr("rasterCycles", strconv.FormatInt(rc, 10))
		sp.End()
		b.tileSpan = nil
	}
	b.curTF = 0
	b.l2in.TileRetired(pos, tile)
}

// finish collects stats and computes energy. The Result is a copy, so it
// keeps none of the machine alive once the run is over.
func (b *backEnd) finish() *Result {
	f := b.front
	r := new(Result)
	*r = b.res
	r.L2In = b.l2in.Counter
	r.L2Stats = b.l2c.Stats()
	r.L2Enhanced = b.cfg.L2Enhanced
	r.L2Trace = b.l2trace
	r.DRAM = b.dramDev.Stats()
	r.DRAMIn = b.dramDev.Counter
	r.PrimReads = f.primReads
	r.VertexStats = f.vertex.Stats()
	r.VertexL2Reads = f.vertexL2Reads
	r.RasterStats = b.rasterPipe.Stats()
	if b.cfg.Kind == KindTCOR {
		r.AttrStats = f.attrs.Stats()
		r.ListStats = f.lists.Stats()
	} else {
		r.TileStats = f.tile.Stats()
		r.TileL2Reads = f.tileStats.l2Reads
		r.TileL2Writes = f.tileStats.l2Writes
	}
	r.FrameCycles += r.GeomCycles + r.PLBCycles
	// Bandwidth bound: the frame cannot retire before the DRAM bus has
	// transferred everything it owed.
	if busy := r.DRAM.BusyCycles; busy > r.FrameCycles {
		r.FrameCycles = busy
	}
	b.computeEnergy(r)
	return r
}
