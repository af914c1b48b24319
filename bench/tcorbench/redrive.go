package main

import (
	"fmt"
	"time"

	"tcor/internal/cache"
	"tcor/internal/dram"
	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/l2"
	"tcor/internal/mem"
	"tcor/internal/memmap"
	"tcor/internal/pbuffer"
	"tcor/internal/raster"
	"tcor/internal/stats"
	"tcor/internal/tcor"
	"tcor/internal/tiling"
	"tcor/internal/trace"
	"tcor/internal/workload"
)

// layerSample is one frame's host time split by simulator layer. It is
// measured by re-driving the frame gpu.Simulate just ran through the
// layers' public calls, one layer at a time:
//
//   - bin: tiling.Bin, the Polygon List Builder's binning;
//   - replay: tiling.Replay into a CountingHandler, the bare event stream;
//   - l1: the Tiling Engine L1 (tcor's split caches or the LRU cache.Cache
//     Tile Cache) fed by the same replay, less the replay itself;
//   - plan, commit: raster.PlanTile and raster.CommitPlan per tile;
//   - l2: the recorded L2 ingress stream replayed into l2.New -> dram.New,
//     less the DRAM share;
//   - dram: the recorded DRAM ingress stream replayed into dram.New.
//
// The re-drive checks its L1, raster, L2 and DRAM statistics against the
// gpu.Result of the same frame, so a decomposition that drifted from the
// simulator fails instead of reporting numbers for a different machine.
type layerSample struct {
	bin, replay, l1, plan, commit, l2, dram time.Duration
}

func (ls layerSample) sum() time.Duration {
	return ls.bin + ls.replay + ls.l1 + ls.plan + ls.commit + ls.l2 + ls.dram
}

// decompose re-drives frame 0 of a one-frame scene under cfg and checks it
// against res, the simulator's result for the same scene and cfg. Spans
// of the benchmark's own layer calls land under parent.
func decompose(sc *workload.Scene, cfg gpu.Config, res *gpu.Result, parent *stats.Span, st *streams) (layerSample, error) {
	var ls layerSample
	if sc.NumFrames() != 1 {
		return ls, fmt.Errorf("decomposition needs a one-frame scene, got %d frames", sc.NumFrames())
	}
	prims := sc.Frame(0).Prims
	trav, err := tiling.NewTraversal(cfg.Screen, cfg.Order)
	if err != nil {
		return ls, err
	}

	sp := parent.Child("tiling.Bin", "bench")
	t0 := time.Now()
	b, err := tiling.Bin(cfg.Screen, trav, prims)
	ls.bin = time.Since(t0)
	sp.End()
	if err != nil {
		return ls, err
	}
	listLayout, attrLayout := layouts(cfg)

	var ch tiling.CountingHandler
	sp = parent.Child("tiling.Replay", "bench")
	t0 = time.Now()
	tiling.Replay(b, listLayout, attrLayout, &ch)
	ls.replay = time.Since(t0)
	sp.End()
	if int64(ch.PrimReads) != res.PrimReads {
		return ls, fmt.Errorf("replay issued %d primitive reads, the simulator %d", ch.PrimReads, res.PrimReads)
	}

	m, err := newMachine(sc.Spec, cfg, st)
	if err != nil {
		return ls, err
	}
	m.geometry(prims)
	h := &l1Handler{m: m, b: b, prims: prims, scratch: m.pipe.NewScratch()}
	sp = parent.Child("tiling.Replay+L1+raster", "bench")
	t0 = time.Now()
	tiling.Replay(b, listLayout, attrLayout, h)
	h.drainQueue()
	total := time.Since(t0)
	sp.End()
	ls.plan, ls.commit = h.planT, h.commitT
	ls.l1 = max(total-h.planT-h.commitT-ls.replay, 0)
	m.instrFills()
	m.endFrame()
	if err := m.check(res); err != nil {
		return ls, err
	}

	// L2 and DRAM: replay the recorded streams into fresh models. The first
	// pass records the DRAM ingress and is checked; the timed passes run
	// without recording.
	if err := st.recordDRAM(cfg, res); err != nil {
		return ls, err
	}
	sp = parent.Child("l2.replay", "bench")
	chain, err := st.timeChain(cfg)
	sp.End()
	if err != nil {
		return ls, err
	}
	sp = parent.Child("dram.replay", "bench")
	ls.dram, err = st.timeDRAM(cfg)
	sp.End()
	if err != nil {
		return ls, err
	}
	ls.l2 = max(chain-ls.dram, 0)
	return ls, nil
}

// layouts returns the Parameter Buffer layouts cfg selects.
func layouts(cfg gpu.Config) (pbuffer.ListLayout, pbuffer.AttrLayout) {
	if cfg.InterleavedLists {
		return pbuffer.NewInterleavedListLayout(cfg.Screen.NumTiles()), pbuffer.NewAttrLayout()
	}
	return pbuffer.NewBaselineListLayout(cfg.Screen.NumTiles()), pbuffer.NewAttrLayout()
}

func countEvents(ch *tiling.CountingHandler) int64 {
	return int64(ch.ListWrites + ch.AttrWrites + ch.ListReads + ch.PrimReads + ch.TilesDone)
}

type eventKind uint8

const (
	evL2     eventKind = iota // access arriving at the L2
	evFB                      // Color Buffer flush, straight to DRAM
	evRetire                  // TileRetired at the L2
	evEnd                     // EndFrame at the L2
)

type event struct {
	req  mem.Request
	kind eventKind
	pos  uint16
	tile geom.TileID
}

// streams holds one frame's recorded L2 and DRAM ingress; the buffers are
// reused from frame to frame.
type streams struct {
	l2in   []event
	dramIn []mem.Request
}

// l2Recorder is the L1s' and the raster pipeline's next level during the
// re-drive: it records the L2 ingress in issue order.
type l2Recorder struct{ st *streams }

func (r l2Recorder) Access(q mem.Request) {
	r.st.l2in = append(r.st.l2in, event{req: q, kind: evL2})
}

func (r l2Recorder) TileRetired(pos uint16, tile geom.TileID) {
	r.st.l2in = append(r.st.l2in, event{kind: evRetire, pos: pos, tile: tile})
}

func (r l2Recorder) EndFrame() { r.st.l2in = append(r.st.l2in, event{kind: evEnd}) }

// fbRecorder receives the Color Buffer flush, which the memory
// organization sends to DRAM past the L2, in order with the L2 ingress.
type fbRecorder struct{ st *streams }

func (r fbRecorder) Access(q mem.Request) {
	r.st.l2in = append(r.st.l2in, event{req: q, kind: evFB})
}
func (fbRecorder) TileRetired(uint16, geom.TileID) {}
func (fbRecorder) EndFrame()                       {}

// dramTap records the DRAM ingress and forwards it.
type dramTap struct {
	st   *streams
	next *dram.DRAM
}

func (t dramTap) Access(q mem.Request) {
	t.st.dramIn = append(t.st.dramIn, q)
	t.next.Access(q)
}
func (t dramTap) TileRetired(pos uint16, tile geom.TileID) { t.next.TileRetired(pos, tile) }
func (t dramTap) EndFrame()                                { t.next.EndFrame() }

// replayL2 feeds the recorded L2 ingress into an L2 and the flush into its
// DRAM.
func (st *streams) replayL2(c *l2.Cache, d mem.Sink) {
	for i := range st.l2in {
		e := &st.l2in[i]
		switch e.kind {
		case evL2:
			c.Access(e.req)
		case evFB:
			d.Access(e.req)
		case evRetire:
			c.TileRetired(e.pos, e.tile)
		case evEnd:
			c.EndFrame()
		}
	}
}

// recordDRAM replays the L2 ingress once through a recording tap and
// checks the L2 and DRAM statistics against the simulator's.
func (st *streams) recordDRAM(cfg gpu.Config, res *gpu.Result) error {
	st.dramIn = st.dramIn[:0]
	d, err := dram.New(cfg.DRAM)
	if err != nil {
		return err
	}
	tap := dramTap{st: st, next: d}
	c, err := l2.New(cfg.L2, tap)
	if err != nil {
		return err
	}
	st.replayL2(c, tap)
	if got := c.Stats(); got != res.L2Stats {
		return fmt.Errorf("L2 replay stats %+v, simulator %+v", got, res.L2Stats)
	}
	if got := d.Stats(); got != res.DRAM {
		return fmt.Errorf("DRAM replay stats %+v, simulator %+v", got, res.DRAM)
	}
	return nil
}

// timeChain times the L2 ingress replay into fresh l2.New -> dram.New.
func (st *streams) timeChain(cfg gpu.Config) (time.Duration, error) {
	d, err := dram.New(cfg.DRAM)
	if err != nil {
		return 0, err
	}
	c, err := l2.New(cfg.L2, d)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	st.replayL2(c, d)
	return time.Since(t0), nil
}

// timeDRAM times the DRAM ingress replay into a fresh dram.New.
func (st *streams) timeDRAM(cfg gpu.Config) (time.Duration, error) {
	d, err := dram.New(cfg.DRAM)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, q := range st.dramIn {
		d.Access(q)
	}
	return time.Since(t0), nil
}

// machine is the GPU's L1 side and raster pipeline wired as gpu.Simulate
// wires them (internal/gpu/sim.go newSim), with the L2 replaced by a
// recorder. The check against gpu.Result keeps the two wirings equal.
type machine struct {
	cfg gpu.Config
	rec l2Recorder

	vertex        *cache.Cache
	vertexL2Reads int64

	tile                      *cache.Cache // baseline Tile Cache
	tileL2Reads, tileL2Writes int64
	lists                     *tcor.PrimitiveListCache
	attrs                     *tcor.AttributeCache

	pipe         *raster.Pipeline
	instrL2Reads int64
}

func newMachine(spec workload.Spec, cfg gpu.Config, st *streams) (*machine, error) {
	st.l2in = st.l2in[:0]
	m := &machine{cfg: cfg, rec: l2Recorder{st}}
	var err error
	lruCache := func(bytes, ways int) (*cache.Cache, error) {
		return cache.New(cache.Config{
			Lines:         cache.LinesFor(bytes, memmap.BlockBytes),
			Ways:          ways,
			WriteAllocate: true,
		}, cache.NewLRU())
	}
	switch cfg.Kind {
	case gpu.KindBaseline:
		if m.tile, err = lruCache(cfg.TileCacheBytes, cfg.TileCacheWays); err != nil {
			return nil, err
		}
	case gpu.KindTCOR:
		lcfg := tcor.DefaultListCacheConfig()
		lcfg.TagLastUse = cfg.L2Enhanced
		if m.lists, err = tcor.NewPrimitiveListCache(lcfg, m.rec); err != nil {
			return nil, err
		}
		acfg := tcor.DefaultAttrCacheConfig(cfg.TileCacheBytes - lcfg.SizeBytes)
		acfg.XORIndex = cfg.XORIndex
		acfg.WriteBypass = cfg.WriteBypass
		if m.attrs, err = tcor.NewAttributeCache(acfg, m.rec); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown tile cache kind %d", cfg.Kind)
	}
	if m.vertex, err = lruCache(cfg.VertexCacheBytes, cfg.VertexCacheWays); err != nil {
		return nil, err
	}
	rcfg := raster.DefaultConfig(cfg.Screen, int64(spec.TextureMiB*1024*1024), spec.ShaderInstrPerPixel)
	if spec.ThreeD {
		rcfg.TranslucentFraction = 0.05
	}
	if m.pipe, err = raster.New(rcfg, m.rec, fbRecorder{st}); err != nil {
		return nil, err
	}
	return m, nil
}

// geometry is the Vertex Fetcher: three 16-byte vertices per primitive
// through the Vertex Cache.
func (m *machine) geometry(prims []geom.Primitive) {
	for i := range prims {
		for v := 0; v < 3; v++ {
			addr := memmap.InputGeometryBase + uint64(i*3+v)*16
			if !m.vertex.Access(trace.Access{Key: trace.Key(memmap.Block(addr))}).Hit {
				m.vertexL2Reads++
				m.rec.Access(mem.Request{Addr: addr &^ (memmap.BlockBytes - 1)})
			}
		}
	}
}

// instrFills streams the shader programs into the instruction caches.
func (m *machine) instrFills() {
	for b := int64(0); b < m.pipe.InstrFootprintBlocks(); b++ {
		m.instrL2Reads++
		m.rec.Access(mem.Request{Addr: memmap.FragShaderInstrBase + uint64(b)*memmap.BlockBytes})
	}
	vblocks := int64(m.cfg.Timing.VertexInstr) * 16 / memmap.BlockBytes
	for b := int64(0); b <= vblocks; b++ {
		m.instrL2Reads++
		m.rec.Access(mem.Request{Addr: memmap.VertexShaderInstrBase + uint64(b)*memmap.BlockBytes})
	}
}

func (m *machine) endFrame() {
	if m.tile != nil {
		m.tile.FlushAll()
	} else {
		m.lists.EndFrame()
		m.attrs.EndFrame()
	}
	m.rec.EndFrame()
	m.pipe.EndFrame()
}

// tileAccess is one access to the baseline Tile Cache: a dirty victim is
// written back, and a read miss or a partial-block write miss fetches.
func (m *machine) tileAccess(addr uint64, write bool) {
	res := m.tile.Access(trace.Access{Key: trace.Key(memmap.Block(addr)), Write: write})
	if res.Evicted && res.VictimDirty {
		m.tileL2Writes++
		m.rec.Access(mem.Request{Addr: memmap.BlockAddr(uint64(res.Victim)), Write: true})
	}
	partial := addr%memmap.BlockBytes != 0 || memmap.RegionOf(addr) == memmap.RegionPBAttributes
	if !res.Hit && (!write || partial) {
		m.tileL2Reads++
		m.rec.Access(mem.Request{Addr: addr &^ (memmap.BlockBytes - 1)})
	}
}

// check compares the re-driven L1, raster and L2-ingress statistics with
// the simulator's.
func (m *machine) check(res *gpu.Result) error {
	if got := m.vertex.Stats(); got != res.VertexStats || m.vertexL2Reads != res.VertexL2Reads {
		return fmt.Errorf("vertex cache %+v/%d, simulator %+v/%d", got, m.vertexL2Reads, res.VertexStats, res.VertexL2Reads)
	}
	if m.tile != nil {
		if got := m.tile.Stats(); got != res.TileStats || m.tileL2Reads != res.TileL2Reads || m.tileL2Writes != res.TileL2Writes {
			return fmt.Errorf("tile cache %+v, simulator %+v", got, res.TileStats)
		}
	} else {
		if got := m.attrs.Stats(); got != res.AttrStats {
			return fmt.Errorf("attribute cache %+v, simulator %+v", got, res.AttrStats)
		}
		if got := m.lists.Stats(); got != res.ListStats {
			return fmt.Errorf("primitive list cache %+v, simulator %+v", got, res.ListStats)
		}
	}
	if got := m.pipe.Stats(); got != res.RasterStats {
		return fmt.Errorf("raster %+v, simulator %+v", got, res.RasterStats)
	}
	if m.instrL2Reads != res.InstrL2Reads {
		return fmt.Errorf("instruction fills %d, simulator %d", m.instrL2Reads, res.InstrL2Reads)
	}
	var reads, writes int64
	for _, e := range m.rec.st.l2in {
		if e.kind == evL2 {
			if e.req.Write {
				writes++
			} else {
				reads++
			}
		}
	}
	if reads != res.L2In.Reads || writes != res.L2In.Writes {
		return fmt.Errorf("L2 ingress %d reads/%d writes, simulator %d/%d", reads, writes, res.L2In.Reads, res.L2In.Writes)
	}
	return nil
}

// l1Handler feeds the Tiling Engine event stream into the configured L1
// and rasterizes each tile when the Tile Fetcher finishes it, as the
// simulator's frame handler does, timing the raster plan and commit.
type l1Handler struct {
	m     *machine
	b     *tiling.Binning
	prims []geom.Primitive

	// queue is TCOR's Tile Fetcher output queue: primitives whose
	// Attribute Cache lines stay locked until the Rasterizer consumes them.
	queue []uint32

	work           []raster.TileWork
	scratch        *raster.PlanScratch
	plan           raster.TilePlan
	planT, commitT time.Duration
}

func (h *l1Handler) ListWrite(addr uint64, tile geom.TileID) {
	if h.m.tile != nil {
		h.m.tileAccess(addr, true)
		return
	}
	h.m.lists.Access(addr, true, h.b.Traversal.Pos[tile])
}

func (h *l1Handler) AttrWrite(prim uint32, numAttrs uint8, firstUse, lastUse uint16, blocks []uint64) {
	if h.m.tile != nil {
		for _, b := range blocks {
			h.m.tileAccess(b, true)
		}
		return
	}
	h.m.attrs.Write(prim, numAttrs, firstUse, lastUse, blocks)
}

func (h *l1Handler) ListRead(addr uint64, tile geom.TileID) {
	if h.m.tile != nil {
		h.m.tileAccess(addr, false)
		return
	}
	h.m.lists.Access(addr, false, h.b.Traversal.Pos[tile])
}

func (h *l1Handler) PrimRead(prim uint32, numAttrs uint8, optNum, lastUse uint16, blocks []uint64, _ geom.TileID) {
	if h.m.tile != nil {
		for _, b := range blocks {
			h.m.tileAccess(b, false)
		}
		return
	}
	attrs := h.m.attrs
	res := attrs.Read(prim, numAttrs, optNum, lastUse, blocks)
	for res.Stalled {
		if len(h.queue) == 0 {
			return
		}
		attrs.Unlock(h.queue[0])
		h.queue = h.queue[1:]
		res = attrs.Read(prim, numAttrs, optNum, lastUse, blocks)
	}
	h.queue = append(h.queue, prim)
	if len(h.queue) > h.m.cfg.OutputQueueDepth {
		attrs.Unlock(h.queue[0])
		h.queue = h.queue[1:]
	}
}

func (h *l1Handler) TileDone(tile geom.TileID, pos uint16) {
	work := h.work[:0]
	for _, e := range h.b.Lists[tile] {
		work = append(work, raster.TileWork{Prim: &h.prims[e.Prim]})
	}
	h.work = work
	t0 := time.Now()
	h.m.pipe.PlanTile(tile, 0, work, h.scratch, &h.plan)
	t1 := time.Now()
	h.m.pipe.CommitPlan(&h.plan)
	t2 := time.Now()
	h.planT += t1.Sub(t0)
	h.commitT += t2.Sub(t1)
	h.m.rec.TileRetired(pos, tile)
}

// drainQueue unlocks the primitives still queued at frame end.
func (h *l1Handler) drainQueue() {
	for _, p := range h.queue {
		h.m.attrs.Unlock(p)
	}
	h.queue = h.queue[:0]
}
