// Command tcorsim runs one benchmark of the suite through the full TBR GPU
// model under a chosen Tile Cache organization and prints a detailed report:
// per-level traffic, cache statistics, energy breakdown, Tile Fetcher
// throughput and frame rate.
//
// Usage:
//
//	tcorsim -benchmark CCS -config tcor -size 64
//	tcorsim -benchmark DDS -config baseline -size 128 -frames 3
//	tcorsim -benchmark SoD -compare        # baseline vs TCOR side by side
//	tcorsim -benchmark SoD -compare -parallel 2 -timeout 5m
//	tcorsim -benchmark CCS -stats out.json # full hierarchy counter dump
//	tcorsim -benchmark CCS -check          # verify cross-level invariants
//	tcorsim -benchmark CCS -evtrace 32 -stats out.json  # last 32 L2 evictions
//	tcorsim -benchmark CCS -trace out.json # span trace for chrome://tracing
//	tcorsim -benchmark SoD -compare -chaos "rate=0.5,lat=100ms"  # fault drill
//	tcorsim -benchmark CCS -policy ARC     # race one policy vs LRU and OPT
//
// -policy skips the full GPU model and races the named replacement policy
// (any registry name, see paperfig -arena) against the LRU and OPT anchors
// on the benchmark's PLB access stream at -size KiB, printing the arena's
// ranked report. With -json it emits the report's canonical encoding.
//
// With -compare the configurations run concurrently through the bounded
// sweep pool; reports are buffered per configuration and printed in a
// fixed order, so the output is byte-identical at every -parallel level.
//
// -stats writes a schema-stable JSON document: one entry per simulated
// configuration, each with the full counter map of every hierarchy level
// (L1 list/attribute/tile/vertex caches, L2, DRAM, per-region traffic).
// Counter names are identical across configurations — the organization a
// run did not use appears as zeros — so downstream tooling can diff runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"tcor/internal/arena"
	"tcor/internal/buildinfo"
	"tcor/internal/cache"
	"tcor/internal/experiments"
	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/memmap"
	"tcor/internal/resilience"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "tcorsim:", err)
		}
		os.Exit(2)
	}
	if opts.version {
		fmt.Println(buildinfo.Get())
		return
	}

	ctx := context.Background()
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}

	if err := run(ctx, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "tcorsim:", err)
		os.Exit(1)
	}
}

// options is the parsed and validated command line.
type options struct {
	benchmark string
	specPath  string
	config    string
	sizeKB    int
	frames    int
	compare   bool
	policy    string
	jsonOut   bool
	parallel  int
	timeout   time.Duration
	statsPath string
	tracePath string
	check     bool
	evtrace   int
	chaos     string
	chaosPlan resilience.FaultPlan
	chaosSeed int64
	version   bool
}

// traceCapacity bounds the in-memory span trace behind -trace. At roughly
// one span per tile plus a handful per frame, 64Ki spans hold several
// frames of the largest suite benchmarks; once full, later spans are
// dropped and counted rather than growing without bound.
const traceCapacity = 1 << 16

// parseOptions parses args into options and enforces the cross-flag rules.
// Every rejection is a clear error (and a non-zero exit in main) rather
// than a silently ignored or clamped value.
func parseOptions(args []string, errOut io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("tcorsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.benchmark, "benchmark", "CCS", "benchmark alias (see paperfig -table 2)")
	fs.StringVar(&o.specPath, "spec", "", "JSON workload profile (overrides -benchmark; see internal/workload.ParseSpec)")
	fs.StringVar(&o.config, "config", "tcor", "configuration: baseline, tcor, tcor-nol2")
	fs.IntVar(&o.sizeKB, "size", 64, "total Tile Cache size in KiB (paper: 64 or 128)")
	fs.IntVar(&o.frames, "frames", 0, "frames to simulate (0 = benchmark default)")
	fs.BoolVar(&o.compare, "compare", false, "run baseline and TCOR and print both")
	fs.StringVar(&o.policy, "policy", "", "race this replacement policy against LRU and OPT on the benchmark's PLB stream (registry name; see paperfig -arena)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit a machine-readable JSON summary instead of text")
	fs.IntVar(&o.parallel, "parallel", 0, "max concurrent -compare simulations (0 = GOMAXPROCS)")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	fs.StringVar(&o.statsPath, "stats", "", "write the full hierarchy counter dump as JSON to this file")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace_event JSON span trace (chrome://tracing, Perfetto) to this file")
	fs.BoolVar(&o.check, "check", false, "verify the cross-level stats invariants after each run (violations fail the command)")
	fs.IntVar(&o.evtrace, "evtrace", 0, "record the last N L2 evictions into the -stats dump (0 = off)")
	fs.StringVar(&o.chaos, "chaos", "", `inject faults into -compare sweep jobs, e.g. "rate=0.5,lat=100ms,seed=3" (empty = off)`)
	fs.BoolVar(&o.version, "version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	if o.timeout < 0 {
		return options{}, fmt.Errorf("-timeout must be non-negative, got %v", o.timeout)
	}
	if o.frames < 0 {
		return options{}, fmt.Errorf("-frames must be non-negative, got %d", o.frames)
	}
	if o.sizeKB <= 0 {
		return options{}, fmt.Errorf("-size must be positive KiB, got %d", o.sizeKB)
	}
	if o.parallel < 0 {
		return options{}, fmt.Errorf("-parallel must be non-negative, got %d", o.parallel)
	}
	if o.evtrace < 0 {
		return options{}, fmt.Errorf("-evtrace must be non-negative, got %d", o.evtrace)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if o.compare && set["config"] {
		return options{}, fmt.Errorf("-compare runs baseline and tcor; it conflicts with -config %s", o.config)
	}
	if set["spec"] && set["benchmark"] {
		return options{}, fmt.Errorf("-spec overrides the workload; it conflicts with -benchmark %s", o.benchmark)
	}
	if o.evtrace > 0 && o.statsPath == "" {
		return options{}, fmt.Errorf("-evtrace records into the -stats dump; pass -stats too")
	}
	if o.policy != "" {
		canonical, err := cache.CanonicalPolicyName(o.policy)
		if err != nil {
			return options{}, fmt.Errorf("-policy: %w", err)
		}
		o.policy = canonical
		// The policy race runs the PLB-level cache model, not the full GPU
		// pipeline: the flags below configure machinery it never builds.
		for _, f := range []string{"compare", "config", "spec", "chaos", "evtrace", "check", "stats", "trace"} {
			if set[f] {
				return options{}, fmt.Errorf("-policy races the PLB cache model; it conflicts with -%s", f)
			}
		}
	}
	if o.chaos != "" {
		if !o.compare {
			return options{}, fmt.Errorf("-chaos injects faults into the -compare sweep pool; pass -compare too")
		}
		plan, seed, err := resilience.ParsePlan(o.chaos)
		if err != nil {
			return options{}, err
		}
		o.chaosPlan, o.chaosSeed = plan, seed
	}
	return o, nil
}

// statsRun is one configuration's slice of the -stats JSON document.
type statsRun struct {
	Benchmark   string         `json:"benchmark"`
	Config      string         `json:"config"`
	TileCacheKB int            `json:"tileCacheKB"`
	Counters    stats.Snapshot `json:"counters"`
	L2Trace     []stats.Event  `json:"l2Trace,omitempty"`
}

// statsDoc is the top-level -stats JSON shape.
type statsDoc struct {
	Runs []statsRun `json:"runs"`
}

// collector gathers per-run registries across the (possibly concurrent)
// -compare sweep.
type collector struct {
	mu   sync.Mutex
	runs []statsRun
}

func (c *collector) add(r statsRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs = append(c.runs, r)
}

// sorted returns the runs in deterministic (benchmark, config) order, so
// the -stats file does not depend on -parallel scheduling.
func (c *collector) sorted() []statsRun {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]statsRun, len(c.runs))
	copy(out, c.runs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		return out[i].Config < out[j].Config
	})
	return out
}

// runPolicy races o.policy against the LRU and OPT anchors on the selected
// benchmark through the arena engine.
func runPolicy(ctx context.Context, w io.Writer, o options) error {
	r := experiments.NewRunner()
	r.Frames = o.frames
	r.Parallel = o.parallel
	r.Ctx = ctx
	rep, err := arena.Race(ctx, r, arena.Options{
		Policies:   []string{o.policy, "LRU", "OPT"},
		Benchmarks: []string{o.benchmark},
		SizeKB:     float64(o.sizeKB),
		Parallel:   o.parallel,
	})
	if err != nil {
		return err
	}
	if o.jsonOut {
		body, err := rep.Encode()
		if err != nil {
			return err
		}
		_, err = w.Write(body)
		return err
	}
	for _, t := range rep.Tables() {
		fmt.Fprintln(w, t)
	}
	return nil
}

func run(ctx context.Context, w io.Writer, o options) error {
	if o.policy != "" {
		return runPolicy(ctx, w, o)
	}
	var spec workload.Spec
	var err error
	if o.specPath != "" {
		spec, err = workload.LoadSpec(o.specPath)
	} else {
		spec, err = workload.ByAlias(o.benchmark)
	}
	if err != nil {
		return err
	}
	if o.frames > 0 {
		spec.Frames = o.frames
	}
	scene, err := workload.Generate(spec, geom.DefaultScreen())
	if err != nil {
		return err
	}
	st := scene.Stats()
	if !o.jsonOut {
		fmt.Fprintf(w, "benchmark %s (%s): %d primitives, %.2f MiB Parameter Buffer, re-use %.2f, %d frame(s)\n\n",
			spec.Alias, spec.Name, st.Primitives,
			float64(st.PBFootprint)/(1024*1024), st.AvgPrimReuse, scene.NumFrames())
	}

	var tracer *stats.Tracer
	if o.tracePath != "" {
		tracer = stats.NewTracer(traceCapacity)
		// Sweep jobs (under -compare) pick the tracer up from the context
		// and wrap each configuration in a sweep.job span.
		ctx = stats.ContextWithTracer(ctx, tracer)
	}

	if o.chaos != "" {
		// The injector rides the context into the sweep pool, where each job
		// consults the experiments.sweep site before simulating. With a
		// latency-only plan this is a live demo of fault scheduling; with an
		// error rate, some configurations fail and -compare reports it.
		inj := resilience.NewInjector(o.chaosSeed)
		inj.Arm(resilience.SiteSweep, o.chaosPlan)
		ctx = resilience.ContextWithInjector(ctx, inj)
		fmt.Fprintf(os.Stderr, "tcorsim: CHAOS MODE armed (%s) on the sweep pool\n", o.chaos)
	}

	col := &collector{}
	if o.compare {
		// Each configuration renders into its own buffer inside the sweep
		// pool; printing afterwards in slice order keeps the output stable.
		reports, err := experiments.SweepSlice(ctx, o.parallel, []string{"baseline", "tcor"},
			func(_ context.Context, c string) (string, error) {
				var b strings.Builder
				if err := simulate(&b, scene, c, o, col, tracer); err != nil {
					return "", err
				}
				return b.String(), nil
			})
		if err != nil {
			return err
		}
		for _, rep := range reports {
			fmt.Fprint(w, rep)
		}
	} else if err := simulate(w, scene, o.config, o, col, tracer); err != nil {
		return err
	}

	if o.statsPath != "" {
		blob, err := json.MarshalIndent(statsDoc{Runs: col.sorted()}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.statsPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		if !o.jsonOut {
			fmt.Fprintln(w, "wrote stats to", o.statsPath)
		}
	}
	if o.tracePath != "" {
		if err := writeTrace(o.tracePath, tracer); err != nil {
			return err
		}
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "tcorsim: trace full, dropped %d spans\n", d)
		}
		if !o.jsonOut {
			fmt.Fprintln(w, "wrote trace to", o.tracePath)
		}
	}
	return nil
}

// writeTrace exports the recorded spans as Chrome trace_event JSON.
func writeTrace(path string, tracer *stats.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func configFor(name string, sizeKB int) (gpu.Config, error) {
	bytes := sizeKB * 1024
	switch name {
	case "baseline":
		return gpu.Baseline(bytes), nil
	case "tcor":
		return gpu.TCOR(bytes), nil
	case "tcor-nol2":
		return gpu.TCORNoL2(bytes), nil
	default:
		return gpu.Config{}, fmt.Errorf("unknown config %q (baseline, tcor, tcor-nol2)", name)
	}
}

func simulate(w io.Writer, scene *workload.Scene, config string, o options, col *collector, tracer *stats.Tracer) error {
	cfg, err := configFor(config, o.sizeKB)
	if err != nil {
		return err
	}
	cfg.L2TraceDepth = o.evtrace
	cfg.Tracer = tracer
	cfg.TraceTiles = true // full per-tile resolution for single-run analysis
	res, err := gpu.Simulate(scene, cfg)
	if err != nil {
		return err
	}
	reg := res.StatsRegistry()
	if o.check {
		if err := reg.Check(); err != nil {
			return fmt.Errorf("%s: invariant check failed:\n%w", config, err)
		}
	}
	if o.statsPath != "" {
		sr := statsRun{
			Benchmark: res.Benchmark, Config: config, TileCacheKB: o.sizeKB,
			Counters: reg.Snapshot(),
		}
		if res.L2Trace != nil {
			sr.L2Trace = res.L2Trace.Events()
		}
		col.add(sr)
	}
	if o.jsonOut {
		pbL2, pbMem := res.L2In.PB(), res.DRAMIn.PB()
		out, err := json.MarshalIndent(summary{
			Benchmark: res.Benchmark, Config: config, TileCacheKB: o.sizeKB,
			Frames:    res.Frames,
			PBL2Reads: pbL2.Reads, PBL2Writes: pbL2.Writes,
			PBMemReads: pbMem.Reads, PBMemWrites: pbMem.Writes,
			MemReads: res.DRAM.Reads, MemWrites: res.DRAM.Writes,
			PPC: res.PPC(), FPS: res.FPS(600e6),
			HierEnergyMJ:  res.MemHierarchyPJ / 1e9,
			TotalEnergyMJ: res.TotalPJ / 1e9,
			FrameCycles:   res.FrameCycles / int64(res.Frames),
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(out))
		return nil
	}

	fmt.Fprintf(w, "=== %s, %d KiB Tile Cache ===\n", config, o.sizeKB)
	pbL2 := res.L2In.PB()
	pbMem := res.DRAMIn.PB()
	fmt.Fprintf(w, "PB accesses to L2:          %8d reads %8d writes\n", pbL2.Reads, pbL2.Writes)
	fmt.Fprintf(w, "PB accesses to main memory: %8d reads %8d writes\n", pbMem.Reads, pbMem.Writes)
	fmt.Fprintf(w, "total main memory accesses: %8d reads %8d writes\n", res.DRAM.Reads, res.DRAM.Writes)
	for _, reg := range []memmap.Region{
		memmap.RegionPBLists, memmap.RegionPBAttributes, memmap.RegionTextures,
		memmap.RegionInputGeometry, memmap.RegionFrameBuffer,
	} {
		rc := res.DRAMIn.Region(reg)
		if rc.Reads+rc.Writes > 0 {
			fmt.Fprintf(w, "  memory %-16s %8d reads %8d writes\n", reg, rc.Reads, rc.Writes)
		}
	}
	if res.Kind == gpu.KindTCOR {
		a := res.AttrStats
		fmt.Fprintf(w, "attribute cache: %d reads (%.1f%% hit), %d writes (%d inserted, %d bypassed), %d stalls\n",
			a.Reads, 100*float64(a.ReadHits)/float64(max64(a.Reads, 1)),
			a.Writes, a.WriteInserts, a.WriteBypasses, a.Stalls)
		l := res.ListStats
		fmt.Fprintf(w, "prim list cache: %d accesses (%.1f%% hit)\n",
			l.Reads+l.Writes, 100*float64(l.Hits)/float64(max64(l.Reads+l.Writes, 1)))
	} else {
		ts := res.TileStats
		fmt.Fprintf(w, "tile cache: %d accesses (%.1f%% hit), %d writebacks\n",
			ts.Accesses, 100*ts.HitRatio(), ts.Writebacks)
	}
	l2 := res.L2Stats
	fmt.Fprintf(w, "L2: %d accesses (%.1f%% hit), %d writebacks, %d dropped (dead), %d dead evictions\n",
		l2.Reads+l2.Writes, 100*float64(l2.Hits)/float64(max64(l2.Reads+l2.Writes, 1)),
		l2.Writebacks, l2.DroppedWritebacks, l2.DeadEvictions)
	fmt.Fprintf(w, "tile fetcher: %.3f primitives/cycle (%d primitives over %d cycles)\n",
		res.PPC(), res.PrimReads, res.TFCycles)
	fmt.Fprintf(w, "frame: %d cycles -> %.1f FPS at 600 MHz\n",
		res.FrameCycles/int64(res.Frames), res.FPS(600e6))
	fmt.Fprintf(w, "energy: memory hierarchy %.3f mJ, total GPU %.3f mJ\n\n",
		res.MemHierarchyPJ/1e9, res.TotalPJ/1e9)
	fmt.Fprintln(w, res.Tally.String())
	if o.check {
		fmt.Fprintf(w, "invariants: ok (%d checked)\n\n", len(reg.InvariantNames()))
	}
	return nil
}

// summary is the JSON shape of one simulation under -json.
type summary struct {
	Benchmark     string  `json:"benchmark"`
	Config        string  `json:"config"`
	TileCacheKB   int     `json:"tileCacheKB"`
	Frames        int     `json:"frames"`
	PBL2Reads     int64   `json:"pbL2Reads"`
	PBL2Writes    int64   `json:"pbL2Writes"`
	PBMemReads    int64   `json:"pbMemReads"`
	PBMemWrites   int64   `json:"pbMemWrites"`
	MemReads      int64   `json:"memReads"`
	MemWrites     int64   `json:"memWrites"`
	PPC           float64 `json:"primitivesPerCycle"`
	FPS           float64 `json:"fps"`
	HierEnergyMJ  float64 `json:"memHierarchyEnergyMJ"`
	TotalEnergyMJ float64 `json:"totalGPUEnergyMJ"`
	FrameCycles   int64   `json:"frameCycles"`
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
