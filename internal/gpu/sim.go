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
// the work that depends only on the scene, the screen, the traversal order,
// the frame and the tile: each frame is binned once, and each tile is
// planned once (raster.PlanTile) and its texture taps filtered once, through
// the first configuration's texture caches (raster.FilterTextures); the
// filtered plan is then committed into every configuration's own Raster
// Pipeline, L2 and DRAM (raster.CommitFiltered). The texture caches read no
// L2 state and every configuration's raster.Config is the same, so each
// configuration's texture caches would filter the same tap stream the same
// way, and the other configurations never build texture caches at all.
// Geometry, the PLB and Tile Fetcher replays, the other L1s, the L2 and
// DRAM stay per configuration. Each configuration sees exactly the
// event order it sees alone, so results[i] is byte-identical to
// Simulate(scene, cfgs[i]).
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
	out := make([]*Result, len(g.sims))
	for i, s := range g.sims {
		out[i] = s.finish()
	}
	return out, nil
}

// group steps its configurations through a scene in lockstep: one sim per
// configuration, plus the tile plan they share.
type group struct {
	scene *workload.Scene
	sims  []*sim

	// The current tile's raster plan: the first sim's TileDone plans and
	// filters it, every sim's TileDone commits it.
	work    []raster.TileWork
	scratch *raster.PlanScratch
	plan    raster.TilePlan
}

func newGroup(scene *workload.Scene, cfgs []Config) (*group, error) {
	trav, err := tiling.NewTraversal(cfgs[0].Screen, cfgs[0].Order)
	if err != nil {
		return nil, err
	}
	g := &group{scene: scene, sims: make([]*sim, len(cfgs))}
	for i, cfg := range cfgs {
		if g.sims[i], err = newSim(scene, cfg, trav, g); err != nil {
			return nil, err
		}
	}
	g.scratch = g.sims[0].rasterPipe.NewScratch()
	return g, nil
}

// runFrame pushes one frame through every sim, stage by stage: each sim's
// geometry, one binning, each sim's PLB replay, then the
// tiles in traversal order (every sim's Tile Fetcher replay and raster of a
// tile before the next tile), then each sim's frame end.
//
// When a tracer is configured, each sim's frame emits a span tree — frame >
// {geometry, binning, tiles > tile...} — whose wall-clock durations
// attribute simulator time to pipeline phases (the trace never feeds back
// into simulated cycles). The shared work, binning and each tile's plan, is
// recorded once, in the first sim's binning and tile spans.
func (g *group) runFrame(f int) error {
	prims := g.scene.Frame(f).Prims
	for _, s := range g.sims {
		s.beginFrame(f, prims)
	}
	lead := g.sims[0]
	bsp := lead.frameSpan.Child("binning", "gpu")
	binning, err := tiling.Bin(lead.cfg.Screen, lead.trav, prims)
	bsp.End()
	if err != nil {
		for _, s := range g.sims {
			s.frameSpan.End()
		}
		return err
	}
	for _, s := range g.sims {
		s.replayPLB(binning)
	}
	for pos := range binning.Traversal.Seq {
		for _, s := range g.sims {
			tiling.ReplayTile(binning, s.listLayout, s.attrLayout, pos, s)
		}
	}
	for _, s := range g.sims {
		s.endFrame()
	}
	return nil
}

// planTile plans the first sim's current tile into the shared plan and
// filters its texture taps through the first sim's texture caches. A plan
// depends only on the scene, the screen, the frame and the tile, and every
// sim's Raster Pipeline is built from the same raster.Config (newSim
// derives it from the scene and the screen alone), so one plan serves all.
// For the same reason every sim's texture caches would see the same tap
// stream from the same state, so one filter serves all too: the other
// sims never build texture caches, and their texture statistics come from
// the filtered plans they commit.
func (g *group) planTile(tile geom.TileID) {
	s := g.sims[0]
	work := g.work[:0]
	for _, e := range s.binning.Lists[tile] {
		work = append(work, raster.TileWork{Prim: &s.prims[e.Prim]})
	}
	g.work = work
	s.rasterPipe.PlanTile(tile, s.frame, work, g.scratch, &g.plan)
	s.rasterPipe.FilterTextures(&g.plan)
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

// sim is one configuration's wired-up machine. It is also the
// tiling.Handler that adapts the Tiling Engine event stream onto the
// configured cache organization and accumulates the timing.
type sim struct {
	cfg    Config
	group  *group
	trav   *tiling.Traversal // shared by the group
	tracer *stats.Tracer     // nil when span tracing is off

	dramDev *dram.DRAM
	l2c     *l2.Cache
	l2in    *teeSink    // in front of the L2: counts all L1->L2 traffic
	l2trace *stats.Ring // bounded L2 eviction trace (nil when off)

	// Tiling Engine L1s: exactly one of (tile) or (lists, attrs) is set.
	tile      *cache.WriteBackLRU // baseline unified Tile Cache
	tileStats struct {
		reads, writes, l2Reads, l2Writes int64
	}
	lists *tcor.PrimitiveListCache
	attrs *tcor.AttributeCache

	vertex        *cache.FlatLRU
	vertexL2Reads int64

	rasterPipe *raster.Pipeline

	listLayout pbuffer.ListLayout
	attrLayout pbuffer.AttrLayout

	// framePrimReads is the per-frame bookkeeping cursor for PerFrame.
	framePrimReads int64

	// The current frame (set by beginFrame and replayPLB).
	frame      int
	prims      []geom.Primitive
	binning    *tiling.Binning
	dramBefore dram.Stats
	plbCycles  int64
	// Per-traversal-position Tile Fetcher and Raster cycles, reused across
	// frames (reset, never reallocated once warm).
	tileTF, tileRaster []int64
	curTF              int64

	// frameSpan and tilesSpan are the current frame's spans; tileSpan is
	// the span of the tile currently streaming through the Tile Fetcher
	// (begun lazily at its first fetch event, ended in TileDone). All nil
	// when tracing is off.
	frameSpan, tilesSpan, tileSpan *stats.Span

	// TCOR output queue: primitives locked until the Rasterizer consumes
	// them.
	queue []uint32

	res Result
}

func newSim(scene *workload.Scene, cfg Config, trav *tiling.Traversal, g *group) (*sim, error) {
	s := &sim{cfg: cfg, group: g, trav: trav, tracer: cfg.Tracer}
	var err error
	s.dramDev, err = dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	s.l2c, err = l2.New(cfg.L2, s.dramDev)
	if err != nil {
		return nil, err
	}
	s.l2in = newTee(s.l2c)
	if cfg.L2TraceDepth > 0 {
		s.l2trace = stats.NewRing(cfg.L2TraceDepth)
		s.l2c.SetEvictionTrace(s.l2trace)
	}

	switch cfg.Kind {
	case KindBaseline:
		s.tile, err = cache.NewWriteBackLRU(cache.Config{
			Lines:         cache.LinesFor(cfg.TileCacheBytes, memmap.BlockBytes),
			Ways:          cfg.TileCacheWays,
			WriteAllocate: true,
		})
		if err != nil {
			return nil, fmt.Errorf("gpu: tile cache: %w", err)
		}
	case KindTCOR:
		lcfg := tcor.DefaultListCacheConfig()
		lcfg.TagLastUse = cfg.L2Enhanced
		s.lists, err = tcor.NewPrimitiveListCache(lcfg, s.l2in)
		if err != nil {
			return nil, err
		}
		acfg := tcor.DefaultAttrCacheConfig(cfg.TileCacheBytes - lcfg.SizeBytes)
		acfg.XORIndex = cfg.XORIndex
		acfg.WriteBypass = cfg.WriteBypass
		s.attrs, err = tcor.NewAttributeCache(acfg, s.l2in)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("gpu: unknown tile cache kind %d", cfg.Kind)
	}

	// The Vertex Cache is only read.
	s.vertex, err = cache.NewFlatLRU(cache.Config{
		Lines: cache.LinesFor(cfg.VertexCacheBytes, memmap.BlockBytes),
		Ways:  cfg.VertexCacheWays,
	})
	if err != nil {
		return nil, fmt.Errorf("gpu: vertex cache: %w", err)
	}

	spec := scene.Spec
	rcfg := raster.DefaultConfig(cfg.Screen, int64(spec.TextureMiB*1024*1024), spec.ShaderInstrPerPixel)
	// 3D titles carry some alpha-blended effects (particles, glass, UI
	// overlays); a modest deterministic share exercises the Blending unit.
	if spec.ThreeD {
		rcfg.TranslucentFraction = 0.05
	}
	s.rasterPipe, err = raster.New(rcfg, s.l2in, s.dramDev)
	if err != nil {
		return nil, err
	}

	if cfg.InterleavedLists {
		s.listLayout = pbuffer.NewInterleavedListLayout(cfg.Screen.NumTiles())
	} else {
		s.listLayout = pbuffer.NewBaselineListLayout(cfg.Screen.NumTiles())
	}
	s.attrLayout = pbuffer.NewAttrLayout()

	s.res.Benchmark = spec.Alias
	s.res.Kind = cfg.Kind
	return s, nil
}

// penalty measures the stall cycles incurred by the last L1 operation from
// the L2/DRAM traffic it generated, scaled by the MSHR overlap factor.
type penaltyProbe struct {
	l2Reads, dramReadCycles int64
}

func (s *sim) snap() penaltyProbe {
	return penaltyProbe{
		l2Reads:        s.l2in.Reads,
		dramReadCycles: s.dramDev.Stats().ReadCycles,
	}
}

func (s *sim) penaltySince(p penaltyProbe) int64 {
	l2 := (s.l2in.Reads - p.l2Reads) * int64(s.cfg.Timing.L2Cycles)
	dr := s.dramDev.Stats().ReadCycles - p.dramReadCycles
	return (l2 + dr) / int64(s.cfg.Timing.MSHROverlap)
}

// beginFrameSpan opens one frame's top span: a child of cfg.TraceParent
// when the caller threaded one through (the frame then joins the caller's
// trace), else a fresh root trace. Nil-safe — with tracing off it returns
// the nil span.
func (s *sim) beginFrameSpan() *stats.Span {
	if p := s.cfg.TraceParent; p != nil {
		return p.Child("frame", "gpu")
	}
	return s.tracer.Begin("frame", "gpu")
}

// beginFrame opens frame f and runs its Geometry Pipeline: vertex fetch and
// vertex shading.
func (s *sim) beginFrame(f int, prims []geom.Primitive) {
	s.frame, s.prims = f, prims
	s.frameSpan = s.beginFrameSpan()
	s.frameSpan.SetAttr("frame", strconv.Itoa(f))
	s.dramBefore = s.dramDev.Stats()

	gsp := s.frameSpan.Child("geometry", "gpu")
	s.res.GeomCycles += s.geometry(prims)
	gsp.SetAttr("prims", strconv.Itoa(len(prims)))
	gsp.End()
}

// replayPLB opens the frame's tile phase on the binned frame and replays
// the Tiling Engine's phase 1, the PLB.
func (s *sim) replayPLB(b *tiling.Binning) {
	s.binning = b
	s.plbCycles = 0
	s.tileTF, s.tileRaster = s.tileTF[:0], s.tileRaster[:0]
	s.tilesSpan = s.frameSpan.Child("tiles", "gpu")
	tiling.ReplayPLB(b, s.listLayout, s.attrLayout, s)
}

// endFrame closes the frame once every tile is done: the per-tile timing
// overlap, the shader program fills, the Parameter Buffer recycle and the
// frame's statistics.
func (s *sim) endFrame() {
	s.drainQueue()
	s.tilesSpan.End()

	// Per-tile overlap of Tile Fetcher and Raster Pipeline: the stages are
	// decoupled by the output queue, so the frame pays the slower of the
	// two per tile.
	fs := FrameStats{Frame: s.frame}
	for i := range s.tileTF {
		tf, rs := s.tileTF[i], s.tileRaster[i]
		if tf > rs {
			fs.TileCycles += tf
		} else {
			fs.TileCycles += rs
		}
		fs.TFCycles += tf
		s.res.RasterCycles += rs
	}
	s.res.FrameCycles += fs.TileCycles

	// Shader program fills: each frame streams the vertex and fragment
	// programs into the instruction caches once.
	s.instrFills()

	// --- Frame boundary: recycle the Parameter Buffer. ---
	switch s.cfg.Kind {
	case KindBaseline:
		s.tile.FlushAll() // PB-only cache; drop without write-back
	case KindTCOR:
		s.lists.EndFrame()
		s.attrs.EndFrame()
	}
	s.l2in.EndFrame()
	s.rasterPipe.EndFrame()
	dramAfter := s.dramDev.Stats()
	fs.PrimReads = s.res.PrimReads - s.framePrimReads
	s.framePrimReads = s.res.PrimReads
	fs.DRAMReads = dramAfter.Reads - s.dramBefore.Reads
	fs.DRAMWrites = dramAfter.Writes - s.dramBefore.Writes
	s.res.PerFrame = append(s.res.PerFrame, fs)
	s.res.Frames++
	s.frameSpan.End()
	s.binning = nil // garbage before the next frame is binned
}

// geometry models the Vertex Fetcher and Vertex Stage: each primitive
// fetches three 16-byte vertices from the input geometry stream through the
// Vertex Cache, then runs the vertex program.
func (s *sim) geometry(prims []geom.Primitive) int64 {
	var cycles int64
	for i := range prims {
		for v := 0; v < 3; v++ {
			addr := memmap.InputGeometryBase + uint64(i*3+v)*16
			p := s.snap()
			if !s.vertex.Read(memmap.Block(addr)) {
				s.vertexL2Reads++
				s.l2in.Access(mem.Request{Addr: addr &^ (memmap.BlockBytes - 1)})
			}
			cycles += int64(s.cfg.Timing.L1Cycles) + s.penaltySince(p)
		}
		cycles += int64(s.cfg.Timing.VertexInstr) * 3 / 4 // 4-lane vertex shading
	}
	return cycles
}

// instrFills charges the per-frame shader-program streaming into the
// instruction caches from the L2.
func (s *sim) instrFills() {
	for b := int64(0); b < s.rasterPipe.InstrFootprintBlocks(); b++ {
		s.res.InstrL2Reads++
		s.l2in.Access(mem.Request{Addr: memmap.FragShaderInstrBase + uint64(b)*memmap.BlockBytes})
	}
	vblocks := int64(s.cfg.Timing.VertexInstr) * 16 / memmap.BlockBytes
	for b := int64(0); b <= vblocks; b++ {
		s.res.InstrL2Reads++
		s.l2in.Access(mem.Request{Addr: memmap.VertexShaderInstrBase + uint64(b)*memmap.BlockBytes})
	}
}

// tileAccess routes one block-granularity Tiling Engine access to the
// correct L1 and returns the stall penalty.
func (s *sim) tileAccess(addr uint64, write bool, tilePos uint16) int64 {
	p := s.snap()
	switch s.cfg.Kind {
	case KindBaseline:
		if write {
			s.tileStats.writes++
		} else {
			s.tileStats.reads++
		}
		_, res := s.tile.Access(memmap.Block(addr), write)
		if res.Evicted && res.VictimDirty {
			s.tileStats.l2Writes++
			s.l2in.Access(mem.Request{Addr: memmap.BlockAddr(uint64(res.Victim)), Write: true})
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
			s.tileStats.l2Reads++
			s.l2in.Access(mem.Request{Addr: addr &^ (memmap.BlockBytes - 1)})
		}
	case KindTCOR:
		s.lists.Access(addr, write, tilePos)
	}
	return int64(s.cfg.Timing.L1Cycles) + s.penaltySince(p)
}

// ListWrite implements tiling.Handler.
func (s *sim) ListWrite(addr uint64, tile geom.TileID) {
	pos := s.trav.Pos[tile]
	// Binning work: overlap test + append (~2 cycles per PMD) plus the L1
	// write. Writes drain through a write buffer, so miss handling is
	// off the critical path; only write-buffer pressure (an eighth of the
	// miss penalty) throttles the builder.
	penalty := s.tileAccess(addr, true, pos)
	s.plbCycles += 2 + int64(s.cfg.Timing.L1Cycles) + (penalty-int64(s.cfg.Timing.L1Cycles))/8
}

// AttrWrite implements tiling.Handler.
func (s *sim) AttrWrite(prim uint32, numAttrs uint8, firstUse, lastUse uint16, blocks []uint64) {
	switch s.cfg.Kind {
	case KindBaseline:
		for _, b := range blocks {
			penalty := s.tileAccess(b, true, lastUse)
			s.plbCycles += int64(s.cfg.Timing.L1Cycles) + (penalty-int64(s.cfg.Timing.L1Cycles))/8
		}
	case KindTCOR:
		p := s.snap()
		s.attrs.Write(prim, numAttrs, firstUse, lastUse, blocks)
		s.plbCycles += int64(s.cfg.Timing.L1Cycles) + s.penaltySince(p)/8
	}
}

// beginTileSpan lazily opens the current tile's span at its first Tile
// Fetcher event. Per-tile spans are gated on cfg.TraceTiles (see the knob's
// doc for why); the tracer-nil check keeps the disabled path to one branch.
func (s *sim) beginTileSpan() {
	if s.tracer != nil && s.cfg.TraceTiles && s.tileSpan == nil {
		s.tileSpan = s.tilesSpan.Child("tile", "gpu")
	}
}

// ListRead implements tiling.Handler.
func (s *sim) ListRead(addr uint64, tile geom.TileID) {
	s.beginTileSpan()
	s.curTF += s.tileAccess(addr, false, s.trav.Pos[tile])
}

// PrimRead implements tiling.Handler.
func (s *sim) PrimRead(prim uint32, numAttrs uint8, optNum, lastUse uint16, blocks []uint64, tile geom.TileID) {
	s.beginTileSpan()
	s.res.PrimReads++
	pos := s.trav.Pos[tile]
	switch s.cfg.Kind {
	case KindBaseline:
		// The baseline Tile Fetcher reads each attribute block through the
		// Tile Cache and copies the attributes out.
		for _, b := range blocks {
			s.curTF += s.tileAccess(b, false, pos)
		}
	case KindTCOR:
		p := s.snap()
		res := s.attrs.Read(prim, numAttrs, optNum, lastUse, blocks)
		for res.Stalled {
			if len(s.queue) == 0 {
				return // cannot happen: queue empty means nothing locked
			}
			// Rasterizer consumes the oldest in-flight primitive.
			s.attrs.Unlock(s.queue[0])
			s.queue = s.queue[1:]
			s.curTF++ // one-cycle drain step
			res = s.attrs.Read(prim, numAttrs, optNum, lastUse, blocks)
		}
		s.queue = append(s.queue, prim)
		if len(s.queue) > s.cfg.OutputQueueDepth {
			s.attrs.Unlock(s.queue[0])
			s.queue = s.queue[1:]
		}
		s.curTF += int64(s.cfg.Timing.L1Cycles) + s.penaltySince(p)
	}
}

// TileDone implements tiling.Handler: close out the tile's Tile Fetcher
// cycle count, rasterize the tile, and signal retirement to the L2. The
// group's first sim plans the tile and filters its texture taps; every sim
// commits that one filtered plan.
func (s *sim) TileDone(tile geom.TileID, pos uint16) {
	s.beginTileSpan() // an empty tile still gets a (zero-fetch) span
	g := s.group
	if s == g.sims[0] {
		g.planTile(tile)
	}
	rc := s.rasterPipe.CommitFiltered(&g.plan)
	s.tileTF = append(s.tileTF, s.curTF)
	s.tileRaster = append(s.tileRaster, rc)
	s.res.TFCycles += s.curTF
	if sp := s.tileSpan; sp != nil {
		sp.SetAttr("tile", strconv.Itoa(int(tile)))
		sp.SetAttr("prims", strconv.Itoa(len(s.binning.Lists[tile])))
		sp.SetAttr("tfCycles", strconv.FormatInt(s.curTF, 10))
		sp.SetAttr("rasterCycles", strconv.FormatInt(rc, 10))
		sp.End()
		s.tileSpan = nil
	}
	s.curTF = 0
	s.l2in.TileRetired(pos, tile)
}

// drainQueue books the frame's PLB cycles and unlocks any primitives still
// in the TCOR output queue at frame end.
func (s *sim) drainQueue() {
	s.res.PLBCycles += s.plbCycles
	for _, p := range s.queue {
		s.attrs.Unlock(p)
	}
	s.queue = s.queue[:0]
}

// finish collects stats and computes energy. The Result is a copy, so it
// keeps none of the machine alive once the run is over.
func (s *sim) finish() *Result {
	r := new(Result)
	*r = s.res
	r.L2In = s.l2in.Counter
	r.L2Stats = s.l2c.Stats()
	r.L2Enhanced = s.cfg.L2Enhanced
	r.L2Trace = s.l2trace
	r.DRAM = s.dramDev.Stats()
	r.DRAMIn = s.dramDev.Counter
	r.VertexStats = s.vertex.Stats()
	r.VertexL2Reads = s.vertexL2Reads
	r.RasterStats = s.rasterPipe.Stats()
	if s.cfg.Kind == KindTCOR {
		r.AttrStats = s.attrs.Stats()
		r.ListStats = s.lists.Stats()
	} else {
		r.TileStats = s.tile.Stats()
		r.TileL2Reads = s.tileStats.l2Reads
		r.TileL2Writes = s.tileStats.l2Writes
	}
	r.FrameCycles += r.GeomCycles + r.PLBCycles
	// Bandwidth bound: the frame cannot retire before the DRAM bus has
	// transferred everything it owed.
	if busy := r.DRAM.BusyCycles; busy > r.FrameCycles {
		r.FrameCycles = busy
	}
	s.computeEnergy(r)
	return r
}
