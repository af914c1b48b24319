// Package tcor's root benchmark harness regenerates every table and figure
// of the paper's evaluation under `go test -bench`, one benchmark per
// artifact, and reports each figure's headline number as a custom metric
// (decrease percentages, speedups, capacity-parity ratios). Results across
// benchmarks share one memoized Runner, so the suite's scenes and the six
// full-system simulations per benchmark are paid for once per `go test`
// invocation; the first benchmark touching a configuration does the work.
//
// Micro-benchmarks for the hot substrates (cache accesses per policy,
// Attribute Cache operations, binning, rasterization, whole-frame
// simulation) follow the figure benches.
package tcor

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tcor/internal/cache"
	"tcor/internal/experiments"
	"tcor/internal/geom"
	"tcor/internal/geometry"
	"tcor/internal/gpu"
	"tcor/internal/mem"
	"tcor/internal/raster"
	"tcor/internal/tcor"
	"tcor/internal/tiling"
	"tcor/internal/trace"
	"tcor/internal/workload"
)

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

// benchRunner returns the shared experiment runner (full suite, one frame
// per benchmark to keep `go test -bench=.` tractable).
func benchRunner() *experiments.Runner {
	runnerOnce.Do(func() {
		runner = experiments.NewRunner()
		runner.Frames = 1
	})
	return runner
}

// --- Policy studies: Figs. 1, 11, 12, 13 ---

func BenchmarkFig01_LRUvsOPT(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		fig, err := r.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		lru, opt := fig.Curve("LRU"), fig.Curve("OPT")
		last := len(lru.MissRatios) - 1
		b.ReportMetric(lru.MissRatios[last], "LRU-miss@160KB")
		b.ReportMetric(opt.MissRatios[last], "OPT-miss@160KB")
	}
}

func BenchmarkFig11_LowerBound(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig11(); err != nil {
			b.Fatal(err)
		}
		optKB, lruKB, ratio, err := r.OPTReachParity(0.01)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(optKB, "OPT-parity-KB")
		b.ReportMetric(lruKB, "LRU-parity-KB")
		b.ReportMetric(ratio, "capacity-ratio(paper:6.8)")
	}
}

func BenchmarkFig12_Associativity(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		figs, err := r.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		for _, pol := range []string{"LRU", "OPT"} {
			c := figs[pol].Curve("Associativity 4")
			b.ReportMetric(c.MissRatios[len(c.MissRatios)-1], pol+"-4way-miss@160KB")
		}
	}
}

func BenchmarkFig13_PolicyShootout(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		fig, err := r.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"MRU", "DRRIP (M=2)", "LRU", "OPT"} {
			c := fig.Curve(name)
			unit := strings.ReplaceAll(strings.ReplaceAll(name, " ", ""), "(M=2)", "")
			b.ReportMetric(c.MissRatios[len(c.MissRatios)-1], unit+"@160KB")
		}
	}
}

// --- Full-system traffic: Figs. 14-19 ---

func benchTraffic(b *testing.B, get func(*experiments.Runner) (*experiments.TrafficFigure, error)) {
	b.Helper()
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		fig, err := get(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*fig.Average, "%decrease(avg)")
	}
}

func BenchmarkFig14_PBtoL2_64KB(b *testing.B) {
	benchTraffic(b, (*experiments.Runner).Fig14)
}

func BenchmarkFig15_PBtoL2_128KB(b *testing.B) {
	benchTraffic(b, (*experiments.Runner).Fig15)
}

func BenchmarkFig16_PBtoMem_64KB(b *testing.B) {
	benchTraffic(b, (*experiments.Runner).Fig16)
}

func BenchmarkFig17_PBtoMem_128KB(b *testing.B) {
	benchTraffic(b, (*experiments.Runner).Fig17)
}

func BenchmarkFig18_MemTotal_64KB(b *testing.B) {
	benchTraffic(b, (*experiments.Runner).Fig18)
}

func BenchmarkFig19_MemTotal_128KB(b *testing.B) {
	benchTraffic(b, (*experiments.Runner).Fig19)
}

// --- Energy: Figs. 20-22 ---

func BenchmarkFig20_HierEnergy_64KB(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		fig, err := r.Fig20()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*fig.AvgTCOR, "%decrease-TCOR(paper:14.1)")
		b.ReportMetric(100*fig.AvgNoL2, "%decrease-noL2(paper:~9)")
	}
}

func BenchmarkFig21_HierEnergy_128KB(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		fig, err := r.Fig21()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*fig.AvgTCOR, "%decrease-TCOR(paper:13.6)")
	}
}

func BenchmarkFig22_GPUEnergy(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		fig, err := r.Fig22()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*fig.Avg64, "%decrease-64KB(paper:5.6)")
		b.ReportMetric(100*fig.Avg128, "%decrease-128KB(paper:5.3)")
	}
}

// --- Throughput: Figs. 23/24 and the headline ---

func BenchmarkFig23_Throughput_64KB(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		fig, err := r.Fig23()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.AvgSpeedup, "speedup(paper:4.7x)")
	}
}

func BenchmarkFig24_Throughput_128KB(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		fig, err := r.Fig24()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.AvgSpeedup, "speedup(paper:5.0x)")
	}
}

func BenchmarkHeadline(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		h, err := r.Headline()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*h.MemHierarchyDecrease, "%hier-energy(paper:13.8)")
		b.ReportMetric(100*h.GPUEnergyDecrease, "%gpu-energy(paper:5.5)")
		b.ReportMetric(100*h.FPSIncrease, "%fps(paper:3.7)")
		b.ReportMetric(h.TilingSpeedup, "tiling-speedup(paper:~5x)")
	}
}

// --- Tables ---

func BenchmarkTableII_Workloads(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks ---

// benchTrace is the synthetic annotated trace of the cache micro-benchmarks:
// 64k xorshift keys over 4096 distinct lines.
func benchTrace() trace.Trace {
	tr := make(trace.Trace, 1<<16)
	state := uint64(88172645463325252)
	for i := range tr {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		tr[i].Key = trace.Key(state % 4096)
	}
	trace.AnnotateNextUse(tr)
	return tr
}

func benchPolicy(b *testing.B, p cache.Policy) {
	b.Helper()
	tr := benchTrace()
	c := cache.MustNew(cache.Config{Lines: 1024, Ways: 4, WriteAllocate: true}, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(tr[i%len(tr)])
	}
}

// BenchmarkPolicySimulate covers the arena's per-cell hot path: one policy
// instance from the string registry driven over the synthetic annotated
// trace. The named sub-benchmarks are gated against BENCH_baseline.json so
// a contender cannot quietly make every race slower.
func BenchmarkPolicySimulate(b *testing.B) {
	for _, name := range []string{"LRU", "OPT", "ARC", "S3-FIFO", "Learned"} {
		b.Run(name, func(b *testing.B) {
			p, err := cache.NewPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			benchPolicy(b, p)
		})
	}
}

func BenchmarkCacheAccessLRU(b *testing.B)   { benchPolicy(b, cache.NewLRU()) }
func BenchmarkCacheAccessOPT(b *testing.B)   { benchPolicy(b, cache.NewOPT()) }
func BenchmarkCacheAccessDRRIP(b *testing.B) { benchPolicy(b, cache.NewDRRIP(1)) }
func BenchmarkCacheAccessPLRU(b *testing.B)  { benchPolicy(b, cache.NewPLRU()) }

// BenchmarkCacheAccessFlatLRU runs BenchmarkCacheAccessLRU's trace and
// geometry through the flat tag store that serves the texture caches and
// the L2, so the two LRU engines' ns/access sit side by side.
func BenchmarkCacheAccessFlatLRU(b *testing.B) {
	tr := benchTrace()
	c, err := cache.NewFlatLRU(cache.Config{Lines: 1024, Ways: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(tr[i%len(tr)].Key))
	}
}

func BenchmarkAttributeCacheReadHit(b *testing.B) {
	sink := mem.NewCounter()
	c, err := tcor.NewAttributeCache(tcor.DefaultAttrCacheConfig(48*1024), sink)
	if err != nil {
		b.Fatal(err)
	}
	blocks := []uint64{0x30000000, 0x30000040, 0x30000080}
	c.Write(7, 3, 1, 9, blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(7, 3, uint16(i&0xFFF), 9, blocks)
		c.Unlock(7)
	}
}

func BenchmarkBinning(b *testing.B) {
	spec, err := workload.ByAlias("TRu")
	if err != nil {
		b.Fatal(err)
	}
	spec.Frames = 1
	screen := geom.DefaultScreen()
	scene, err := workload.Generate(spec, screen)
	if err != nil {
		b.Fatal(err)
	}
	trav, err := tiling.NewTraversal(screen, tiling.OrderZ)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tiling.Bin(screen, trav, scene.Frame(0).Prims); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlappedTiles bins frame 0 of DDS (many small primitives) and
// of CCS (fewer, larger ones) with the exact triangle-tile overlap test.
// Not gated: ns/op is compared across commits only on one machine.
func BenchmarkOverlappedTiles(b *testing.B) {
	screen := geom.DefaultScreen()
	for _, alias := range []string{"DDS", "CCS"} {
		spec, err := workload.ByAlias(alias)
		if err != nil {
			b.Fatal(err)
		}
		spec.Frames = 1
		scene, err := workload.Generate(spec, screen)
		if err != nil {
			b.Fatal(err)
		}
		prims := scene.Frame(0).Prims
		b.Run(alias, func(b *testing.B) {
			var buf []geom.TileID
			for i := 0; i < b.N; i++ {
				for j := range prims {
					buf = screen.OverlappedTiles(&prims[j], buf[:0])
				}
			}
		})
	}
}

// BenchmarkGenerate generates and calibrates the ten Table II scenes, the
// scene set-up of every paper-report run. Not gated, like
// BenchmarkOverlappedTiles.
func BenchmarkGenerate(b *testing.B) {
	screen := geom.DefaultScreen()
	suite := workload.Suite()
	for i := 0; i < b.N; i++ {
		for _, spec := range suite {
			if _, err := workload.Generate(spec, screen); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkZOrderTraversal(b *testing.B) {
	screen := geom.DefaultScreen()
	for i := 0; i < b.N; i++ {
		if _, err := tiling.NewTraversal(screen, tiling.OrderZ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRasterTile times one tile rasterized the way the simulator
// does it: PlanTile, then CommitPlan into the texture caches.
func BenchmarkRasterTile(b *testing.B) {
	screen := geom.DefaultScreen()
	p, err := raster.New(raster.DefaultConfig(screen, 4<<20, 12), mem.NewCounter(), mem.NewCounter())
	if err != nil {
		b.Fatal(err)
	}
	tri := &geom.Primitive{
		Pos:      [3]geom.Vec2{{X: -10, Y: -10}, {X: 100, Y: -10}, {X: -10, Y: 100}},
		NumAttrs: 1,
	}
	work := []raster.TileWork{{Prim: tri}, {Prim: tri}, {Prim: tri}}
	sc := p.NewScratch()
	var plan raster.TilePlan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PlanTile(0, i, work, sc, &plan)
		p.CommitPlan(&plan)
	}
}

// BenchmarkPlanTile times the raster planner alone: one CCS frame, binned
// once, planned tile by tile in Z-order traversal with the raster
// configuration gpu.Simulate builds for it. No cache, L2 or DRAM is
// touched. quads/op is the number of covered quads one pass plans.
func BenchmarkPlanTile(b *testing.B) { benchPlanTile(b, "CCS") }

// BenchmarkPlanTileSmallPrims is BenchmarkPlanTile on DDS, whose small
// triangles cover about four quad rows per primitive-tile pair against
// CCS's twelve or so: a planner change that helps large primitives and
// hurts small ones shows in one of the two.
func BenchmarkPlanTileSmallPrims(b *testing.B) { benchPlanTile(b, "DDS") }

// BenchmarkPlanTile3D is BenchmarkPlanTile on SoD, a 3D title: CCS, a 2D
// one, draws nothing translucent, while about two in five of SoD's
// covered quads blend, so a change to the blended or partly occluded
// spans shows here and not in BenchmarkPlanTile.
func BenchmarkPlanTile3D(b *testing.B) { benchPlanTile(b, "SoD") }

func benchPlanTile(b *testing.B, alias string) {
	spec, err := workload.ByAlias(alias)
	if err != nil {
		b.Fatal(err)
	}
	spec.Frames = 1
	screen := geom.DefaultScreen()
	scene, err := workload.Generate(spec, screen)
	if err != nil {
		b.Fatal(err)
	}
	trav, err := tiling.NewTraversal(screen, tiling.OrderZ)
	if err != nil {
		b.Fatal(err)
	}
	prims := scene.Frame(0).Prims
	bins, err := tiling.Bin(screen, trav, prims)
	if err != nil {
		b.Fatal(err)
	}
	p, err := raster.New(gpu.RasterConfig(spec, screen), mem.NewCounter(), mem.NewCounter())
	if err != nil {
		b.Fatal(err)
	}
	work := make([][]raster.TileWork, screen.NumTiles())
	for tile, list := range bins.Lists {
		for _, e := range list {
			work[tile] = append(work[tile], raster.TileWork{Prim: &prims[e.Prim]})
		}
	}
	sc := p.NewScratch()
	var plan raster.TilePlan
	var quads int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quads = 0
		for _, tile := range trav.Seq {
			p.PlanTile(tile, 0, work[tile], sc, &plan)
			quads += plan.Quads
		}
	}
	b.ReportMetric(float64(quads), "quads/op")
}

func BenchmarkFullFrameBaseline(b *testing.B) {
	benchFullFrame(b, gpu.Baseline(64*1024))
}

func BenchmarkFullFrameTCOR(b *testing.B) {
	benchFullFrame(b, gpu.TCOR(64*1024))
}

func benchFullFrame(b *testing.B, cfg gpu.Config) {
	b.Helper()
	scene := benchScene(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpu.Simulate(scene, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkSimulateGroupPrewarm times the six full-system configurations
// behind Figs. 14-24 (baseline, TCOR and TCOR without L2 enhancements at 64
// and 128 KiB) simulated as one gpu.SimulateGroup over one CCS frame, as
// the experiments' prewarm runs each benchmark. Next to
// BenchmarkFullFrame* it shows what the group's shared binning, planning
// and texture filtering save over six single runs. Not gated.
func BenchmarkSimulateGroupPrewarm(b *testing.B) {
	scene := benchScene(b)
	var cfgs []gpu.Config
	for _, kb := range []int{64, 128} {
		cfgs = append(cfgs, gpu.Baseline(kb<<10), gpu.TCOR(kb<<10), gpu.TCORNoL2(kb<<10))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpu.SimulateGroup(scene, cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "groups/s")
}

// benchScene generates the one-frame CCS scene the whole-frame benchmarks
// simulate.
func benchScene(b *testing.B) *workload.Scene {
	b.Helper()
	spec, err := workload.ByAlias("CCS")
	if err != nil {
		b.Fatal(err)
	}
	spec.Frames = 1
	scene, err := workload.Generate(spec, geom.DefaultScreen())
	if err != nil {
		b.Fatal(err)
	}
	return scene
}

// --- Benches for the beyond-the-paper studies ---

func BenchmarkRelatedWork(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.RelatedWork(48); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCCS(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		a, err := r.Ablation("CCS", 64)
		if err != nil {
			b.Fatal(err)
		}
		full, base := a.Row("TCOR (full)"), a.Row("baseline")
		b.ReportMetric(float64(base.PBL2)/float64(full.PBL2), "baseline/TCOR-PB-L2")
	}
}

func BenchmarkParallelRenderers(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		p, err := r.ParallelRenderers("SoD", 64)
		if err != nil {
			b.Fatal(err)
		}
		last := p.Points[len(p.Points)-1]
		b.ReportMetric(last.TCORFPS/last.BaseFPS, "TCOR/base-FPS@64renderers")
	}
}

func BenchmarkTBRvsIMR(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		ratio, err := r.IMRRatio("SoD")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ratio, "IMR/TBR-traffic(paper:1.96x)")
	}
}

// --- Micro-benchmarks for the newer substrates ---

func BenchmarkCacheAccessShepherd(b *testing.B) { benchPolicy(b, cache.NewShepherd(1)) }
func BenchmarkCacheAccessHawkeye(b *testing.B)  { benchPolicy(b, cache.NewHawkeye(nil)) }
func BenchmarkCacheAccessSHiP(b *testing.B)     { benchPolicy(b, cache.NewSHiP(nil)) }

func BenchmarkStackDistances(b *testing.B) {
	tr := make(trace.Trace, 1<<16)
	state := uint64(2463534242)
	for i := range tr {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		tr[i].Key = trace.Key(state % 2048)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := cache.LRUStackDistances(tr)
		if p.Total != int64(len(tr)) {
			b.Fatal("bad profile")
		}
	}
}

// BenchmarkLRUProfile profiles the suite's longest attribute trace (DDS,
// 45,548 accesses): the one pass behind Runner.LRUProfile, which Figs. 1,
// 11 and 12 and every arena cell's 3C reference read.
func BenchmarkLRUProfile(b *testing.B) {
	tr, err := benchRunner().AttributeTrace("DDS")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := cache.LRUStackDistances(tr)
		if p.Total != int64(len(tr)) {
			b.Fatal("bad profile")
		}
	}
}

func BenchmarkGeometryPipeline(b *testing.B) {
	scene := &geometry.Scene{
		Camera: geometry.Camera{
			Eye:    geom.Vec3{X: 6, Y: 4, Z: 10},
			Target: geom.Vec3{},
			Up:     geom.Vec3{Y: 1},
			FovY:   1.0, Aspect: 1960.0 / 768.0, Near: 0.1, Far: 100,
		},
	}
	sphere := geometry.Sphere(24, 32)
	for i := 0; i < 16; i++ {
		scene.Objects = append(scene.Objects, geometry.Object{
			Mesh:      sphere,
			Transform: geom.Translate(float32(i%4)*3-4, 0, float32(i/4)*3-4),
		})
	}
	cfg := geometry.PipelineConfig{Screen: geom.DefaultScreen(), CullBackfaces: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := geometry.Run(scene, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHilbertTraversal(b *testing.B) {
	screen := geom.DefaultScreen()
	for i := 0; i < b.N; i++ {
		if _, err := tiling.NewTraversal(screen, tiling.OrderHilbert); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sweep engine ---

// BenchmarkSweepOverhead isolates the pool's bookkeeping cost: 64 no-op
// jobs per sweep, so the time per op is pure scheduling overhead (the
// figure sweeps amortize this over multi-millisecond simulations).
func BenchmarkSweepOverhead(b *testing.B) {
	jobs := make([]func(context.Context) (int, error), 64)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) { return i, nil }
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(ctx, 0, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPrewarm measures a cold suite prewarm (two benchmarks, six
// configurations each) at a given worker count; a fresh Runner per
// iteration keeps every simulation a memo miss.
func benchPrewarm(b *testing.B, par int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		r.Frames = 1
		r.Benchmarks = []string{"CCS", "GTr"}
		r.Parallel = par
		if err := r.Prewarm(par); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrewarmSequential(b *testing.B) { benchPrewarm(b, 1) }
func BenchmarkPrewarmParallel(b *testing.B)   { benchPrewarm(b, runtime.GOMAXPROCS(0)) }
