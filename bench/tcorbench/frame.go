package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/stats"
	"tcor/internal/tiling"
	"tcor/internal/workload"
)

// The frame workloads' Table II titles. frame-raster takes the
// texture-heavy ones (about 500k texture taps per frame, so raster plan
// and commit and the texture path into L2 and DRAM dominate); frame-pb
// takes the geometry- and Parameter-Buffer-heavy ones (7-18k primitives,
// so geometry, binning, Tile Fetcher replay and the Tile Cache weigh far
// more).
var (
	rasterTitles = []string{"CCS", "SoD", "GTr", "TRu"}
	pbTitles     = []string{"DDS", "Snp", "Mze", "CRa"}
)

const (
	// frameSetupRepeats is how often a frame run generates its scenes;
	// setup_s is the median.
	frameSetupRepeats = 5
	// rssWarmRounds is the number of rounds over the cases before the
	// first segment of a frame run's peak_rss_mb; each later round is one
	// segment.
	rssWarmRounds = 2
)

func runFrameRaster(rc *runContext) (*outcome, error) {
	return runFrames(rc, rasterTitles, []string{"tcor"})
}

// runFramePB alternates the two Tiling Engine L1 designs, so both the
// baseline LRU Tile Cache and TCOR's split caches run.
func runFramePB(rc *runContext) (*outcome, error) {
	return runFrames(rc, pbTitles, []string{"baseline", "tcor"})
}

func frameConfig(name string) gpu.Config {
	if name == "baseline" {
		return gpu.Baseline(64 << 10)
	}
	return gpu.TCOR(64 << 10)
}

// frameSpecs returns the one-frame specs of the titles, each with its
// Spec.Seed offset by the workload seed.
func frameSpecs(titles []string, seed int64) ([]workload.Spec, error) {
	specs := make([]workload.Spec, len(titles))
	for i, t := range titles {
		s, err := workload.ByAlias(t)
		if err != nil {
			return nil, err
		}
		s.Frames = 1
		s.Seed += seed
		specs[i] = s
	}
	return specs, nil
}

// frameCase is one (scene, configuration) pair of a frame workload. ref is
// its first simulation, whose result JSON digest every later simulation of
// the case must reproduce.
type frameCase struct {
	title, config string
	scene         *workload.Scene
	cfg           gpu.Config
	ref           *gpu.Result
	digest        string
}

func (c *frameCase) name() string { return c.title + "/" + c.config }

func resultDigest(res *gpu.Result) (string, error) {
	blob, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// check verifies one simulation of the case: the result's invariants hold
// and its JSON is byte-identical to the case's first simulation.
func (c *frameCase) check(res *gpu.Result) error {
	if err := res.CheckInvariants(); err != nil {
		return fmt.Errorf("%s: %w", c.name(), err)
	}
	d, err := resultDigest(res)
	if err != nil {
		return fmt.Errorf("%s: %w", c.name(), err)
	}
	if d != c.digest {
		return fmt.Errorf("%s: result digest %s differs from the first run's %s", c.name(), d[:12], c.digest[:12])
	}
	return nil
}

// setupFrames generates the scenes (timed, frameSetupRepeats times) and
// simulates every case once to fix its reference digest.
func setupFrames(rc *runContext, o *outcome, titles, configs []string) ([]frameCase, error) {
	specs, err := frameSpecs(titles, rc.seed)
	if err != nil {
		return nil, err
	}
	var scenes []*workload.Scene
	for r := 0; r < frameSetupRepeats; r++ {
		scale := rc.calib.scaleNow(setupCalibSamples)
		c0 := cpuTime()
		scenes = scenes[:0]
		for _, s := range specs {
			sc, err := workload.Generate(s, geom.DefaultScreen())
			if err != nil {
				return nil, err
			}
			scenes = append(scenes, sc)
		}
		o.addSetup(cpuTime()-c0, scale)
		runtime.GC() // the repetition's garbage is not the workload's footprint
	}
	var cases []frameCase
	digests := map[string]string{}
	for i, sc := range scenes {
		for _, cn := range configs {
			c := frameCase{title: titles[i], config: cn, scene: sc, cfg: frameConfig(cn)}
			if c.ref, err = gpu.Simulate(sc, c.cfg); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name(), err)
			}
			if err := c.ref.CheckInvariants(); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name(), err)
			}
			if c.digest, err = resultDigest(c.ref); err != nil {
				return nil, err
			}
			digests[c.name()] = c.digest
			cases = append(cases, c)
		}
	}
	o.details["result_sha256"] = digests
	return cases, nil
}

// runFrames is the frame workloads' closed loop: one caller simulating the
// cases round-robin, one frame per operation, until the window has passed
// and the round is complete, so every case has the same sample count.
func runFrames(rc *runContext, titles, configs []string) (*outcome, error) {
	o := newOutcome()
	cases, err := setupFrames(rc, o, titles, configs)
	if err != nil {
		return nil, err
	}
	if rc.traced() {
		err = traceFrames(rc, o, cases)
	} else {
		measureFrames(rc, o, cases)
	}
	if err != nil {
		return nil, err
	}
	counts, err := simulatedCounts(cases)
	if err != nil {
		return nil, err
	}
	if rc.traced() {
		for k, v := range counts {
			o.metrics[k] = v
		}
	} else {
		o.details["simulated"] = counts
	}
	return o, nil
}

// forRounds calls op for case i % n, i = 0, 1, ..., until the window has
// elapsed at a round boundary. Each round starts with a calibration
// sample, and op receives its factor to the reference speed.
func forRounds(rc *runContext, n int, op func(ci int, scale float64)) {
	start := time.Now()
	var scale float64
	for i := 0; i%n != 0 || time.Since(start) < rc.window; i++ {
		if i%n == 0 {
			scale = rc.calib.scaleNow(1)
		}
		op(i%n, scale)
	}
}

// measureFrames is the untraced frame run. A frame runs on one goroutine,
// so it is timed by the CPU time the process spent on it (calib.go); its
// wall time goes to the result file as raw.
func measureFrames(rc *runContext, o *outcome, cases []frameCase) {
	raw := make([][]float64, len(cases))
	norm := make([][]float64, len(cases))
	forRounds(rc, len(cases), func(ci int, scale float64) {
		c := &cases[ci]
		if ci == 0 && o.attempted >= rssWarmRounds*len(cases) {
			o.rss.next()
		}
		o.attempted++
		t0, c0 := time.Now(), cpuTime()
		res, err := gpu.Simulate(c.scene, c.cfg)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err == nil {
			err = c.check(res)
		}
		if err != nil {
			o.fail("%v", err)
			return
		}
		raw[ci] = append(raw[ci], ms(wall))
		norm[ci] = append(norm[ci], ms(cpu)*scale)
	})
	o.rss.end()
	// The scenes differ several-fold in cost: each is summarised on its
	// own, and the geometric mean over them moves by exactly x% when every
	// scene gets x% faster.
	at := frameSummary(norm)
	o.metrics["op_ms_p50"] = at["op_ms_p50"]
	o.details["op_ms_p90"], o.details["ops_per_s"] = at["op_ms_p90"], at["ops_per_s"]
	o.details["raw"] = frameSummary(raw)
	perCase := map[string]any{}
	for ci, ts := range raw {
		perCase[cases[ci].name()] = map[string]any{"frames": len(ts), "raw_ms_p50": median(ts), "raw_ms_p90": percentile(ts, 90)}
	}
	o.details["per_case"] = perCase
}

// frameSummary returns the geometric means over the cases of each case's
// median and 90th percentile, and the frames per second over all cases.
func frameSummary(times [][]float64) map[string]float64 {
	var p50s, p90s []float64
	var total float64
	n := 0
	for _, ts := range times {
		if len(ts) == 0 {
			continue
		}
		p50s, p90s = append(p50s, median(ts)), append(p90s, percentile(ts, 90))
		for _, t := range ts {
			total += t
		}
		n += len(ts)
	}
	out := map[string]float64{"op_ms_p50": geomean(p50s), "op_ms_p90": geomean(p90s), "frames": float64(n)}
	if total > 0 {
		out["ops_per_s"] = float64(n) / (total / 1000)
	}
	return out
}

// simulatedCounts summarises the cases' simulated statistics. They are
// deterministic for a seed: a change that only speeds the simulator up
// must leave every one of them bit-identical.
func simulatedCounts(cases []frameCase) (map[string]float64, error) {
	var n, cycles, texAcc, texMiss, l2Acc, l2Hits, dead, dramAcc, events int64
	var attrReads, attrHits, listAcc, listHits, tileAcc, tileHits, vtxAcc, vtxHits int64
	var ppc float64
	for i := range cases {
		c := &cases[i]
		r := c.ref
		n++
		cycles += r.FrameCycles
		ppc += r.PPC()
		texAcc += r.RasterStats.TexAccesses
		texMiss += r.RasterStats.TexMisses
		l2Acc += r.L2Stats.Reads + r.L2Stats.Writes
		l2Hits += r.L2Stats.Hits
		dead += r.L2Stats.DeadEvictions
		dramAcc += r.DRAM.Reads + r.DRAM.Writes
		vtxAcc += r.VertexStats.Accesses
		vtxHits += r.VertexStats.Hits
		if c.cfg.Kind == gpu.KindTCOR {
			attrReads += r.AttrStats.Reads
			attrHits += r.AttrStats.ReadHits
			listAcc += r.ListStats.Reads + r.ListStats.Writes
			listHits += r.ListStats.Hits
		} else {
			tileAcc += r.TileStats.Accesses
			tileHits += r.TileStats.Hits
		}
		ev, err := tilingEvents(c)
		if err != nil {
			return nil, err
		}
		events += ev
	}
	mean := func(v int64) float64 { return float64(v) / float64(n) }
	return map[string]float64{
		"gpu.frame_cycles":       mean(cycles),
		"gpu.tf_ppc":             ppc / float64(n),
		"tcor.attr_hit_ratio":    ratio(attrHits, attrReads),
		"tcor.list_hit_ratio":    ratio(listHits, listAcc),
		"cache.tile_hit_ratio":   ratio(tileHits, tileAcc),
		"cache.vertex_hit_ratio": ratio(vtxHits, vtxAcc),
		"raster.tex_accesses":    mean(texAcc),
		"raster.tex_miss_ratio":  ratio(texMiss, texAcc),
		"l2.accesses":            mean(l2Acc),
		"l2.hit_ratio":           ratio(l2Hits, l2Acc),
		"l2.dead_evictions":      mean(dead),
		"dram.accesses":          mean(dramAcc),
		"tiling.events":          mean(events),
	}, nil
}

// tilingEvents counts the Tiling Engine events of the case's frame.
func tilingEvents(c *frameCase) (int64, error) {
	trav, err := tiling.NewTraversal(c.cfg.Screen, c.cfg.Order)
	if err != nil {
		return 0, err
	}
	b, err := tiling.Bin(c.cfg.Screen, trav, c.scene.Frame(0).Prims)
	if err != nil {
		return 0, err
	}
	lists, attrs := layouts(c.cfg)
	var ch tiling.CountingHandler
	tiling.Replay(b, lists, attrs, &ch)
	return countEvents(&ch), nil
}

// frameLayers maps each layerSample field onto its per-layer metric.
func frameLayers(c *frameCase, ls layerSample) map[string]time.Duration {
	l1 := "tcor.pb_cache_ms"
	if c.cfg.Kind == gpu.KindBaseline {
		l1 = "cache.tile_cache_ms"
	}
	return map[string]time.Duration{
		"tiling.bin_ms":    ls.bin,
		"tiling.replay_ms": ls.replay,
		l1:                 ls.l1,
		"raster.plan_ms":   ls.plan,
		"raster.commit_ms": ls.commit,
		"l2.replay_ms":     ls.l2,
		"dram.replay_ms":   ls.dram,
	}
}

// traceFrames is the traced frame run. Each operation simulates its case
// twice, untraced (timed, with its allocations counted) and with the
// simulator's tracer on (its frame and geometry spans), then re-drives the
// frame layer by layer (decompose). The per-layer metrics are geometric
// means over the cases of each case's median.
func traceFrames(rc *runContext, o *outcome, cases []frameCase) error {
	perCase := make([]map[string][]float64, len(cases))
	for i := range perCase {
		perCase[i] = map[string][]float64{}
	}
	var gaps, overhead []float64
	st := &streams{}
	gc0 := readGCCPU()
	forRounds(rc, len(cases), func(ci int, _ float64) {
		c := &cases[ci]
		vals := perCase[ci]
		o.attempted++

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := gpu.Simulate(c.scene, c.cfg)
		untraced := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err == nil {
			err = c.check(res)
		}
		if err != nil {
			o.fail("%v", err)
			return
		}

		op := rc.tracer.Begin("frame-op", "bench")
		op.SetAttr("case", c.name())
		defer op.End()
		sim := op.Child("gpu.Simulate", "bench")
		cfg := c.cfg
		cfg.Tracer, cfg.TraceParent = rc.tracer, sim
		t0 = time.Now()
		res, err = gpu.Simulate(c.scene, cfg)
		traced := time.Since(t0)
		sim.End()
		if err == nil {
			err = c.check(res)
		}
		if err != nil {
			o.fail("traced %v", err)
			return
		}
		frame, geometry := gpuSpans(rc.tracer, t0)
		if frame == 0 {
			o.fail("%s: the traced simulation recorded no frame span", c.name())
			return
		}
		ls, err := decompose(c.scene, c.cfg, res, op, st)
		if err != nil {
			o.fail("%s: decomposition: %v", c.name(), err)
			return
		}

		vals["gpu.frame_ms"] = append(vals["gpu.frame_ms"], ms(frame))
		vals["gpu.geometry_ms"] = append(vals["gpu.geometry_ms"], ms(geometry))
		for k, d := range frameLayers(c, ls) {
			vals[k] = append(vals[k], ms(d))
		}
		vals["gpu.ns_per_access"] = append(vals["gpu.ns_per_access"], float64(untraced.Nanoseconds())/float64(simulatedAccesses(res)))
		vals["gpu.allocs_per_frame"] = append(vals["gpu.allocs_per_frame"], float64(m1.Mallocs-m0.Mallocs))
		vals["gpu.alloc_kb_per_frame"] = append(vals["gpu.alloc_kb_per_frame"], float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		gaps = append(gaps, 100*float64(frame-geometry-ls.sum())/float64(frame))
		overhead = append(overhead, 100*(float64(traced)/float64(untraced)-1))
	})
	gcPct := readGCCPU().since(gc0)

	names := map[string]bool{}
	for _, vals := range perCase {
		for k := range vals {
			names[k] = true
		}
	}
	for k := range names {
		var meds []float64
		for _, vals := range perCase {
			if len(vals[k]) > 0 {
				meds = append(meds, median(vals[k]))
			}
		}
		o.metrics[k] = geomean(meds)
	}
	gap := median(gaps)
	o.metrics["gpu.layer_gap_pct"] = max(gap, -gap)
	o.metrics["go.gc_cpu_pct"] = gcPct
	o.metrics["trace.overhead_pct"] = median(overhead)
	o.details["layer_gap_pct_signed"] = gap
	o.details["traced_ops"] = len(gaps)
	return nil
}

// gpuSpans returns the durations of the simulator's frame and geometry
// spans recorded since t0.
func gpuSpans(t *stats.Tracer, t0 time.Time) (frame, geometry time.Duration) {
	for _, s := range t.Spans() {
		if s.Cat != "gpu" || s.Start.Before(t0) {
			continue
		}
		switch s.Name {
		case "frame":
			frame += s.Dur
		case "geometry":
			geometry += s.Dur
		}
	}
	return frame, geometry
}

// simulatedAccesses counts the memory accesses one simulation modelled at
// every level: Vertex Cache, Tiling Engine L1, texture caches, L2, DRAM.
func simulatedAccesses(r *gpu.Result) int64 {
	l1 := r.TileStats.Accesses + r.AttrStats.Reads + r.AttrStats.Writes + r.ListStats.Reads + r.ListStats.Writes
	return r.VertexStats.Accesses + l1 + r.RasterStats.TexAccesses +
		r.L2Stats.Reads + r.L2Stats.Writes + r.DRAM.Reads + r.DRAM.Writes
}

// gcCPU is a reading of the runtime's CPU accounting.
type gcCPU struct{ gc, total, idle float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return gcCPU{gc: v(0), total: v(1), idle: v(2)}
}

// since returns the garbage collector's share of the CPU time the process
// used between two readings, in percent.
func (g gcCPU) since(start gcCPU) float64 {
	used := (g.total - start.total) - (g.idle - start.idle)
	if used <= 0 {
		return 0
	}
	return 100 * (g.gc - start.gc) / used
}
