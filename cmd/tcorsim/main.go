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
//	tcorsim -benchmark GTr -frames 1 -json # the /v1/simulate body
//	tcorsim -benchmark CCS -stats out.json # full hierarchy counter dump
//	tcorsim -benchmark CCS -check          # verify cross-level invariants
//	tcorsim -benchmark CCS -evtrace 32 -stats out.json  # last 32 L2 evictions
//	tcorsim -benchmark CCS -trace out.json # span trace for chrome://tracing
//	tcorsim -benchmark CCS -policy ARC     # race one policy vs LRU and OPT
//
// The flags map onto a serve.SimulateRequest, which resolves through the
// daemon's resolver (serve.Resolve): the same configuration names,
// defaults and validation. -json prints exactly the body POST /v1/simulate
// serves for that request; -compare -json prints the /v1/sweep body for
// the baseline and TCOR items.
//
// -compare runs both configurations as one gpu.SimulateGroup, so the
// scene is binned and each tile planned once; the reports print baseline
// first.
//
// -policy skips the full GPU model and races the named replacement policy
// (any registry name, see paperfig -arena) against the LRU and OPT anchors
// on the benchmark's PLB access stream at -size KiB, printing the arena's
// ranked report. With -json it emits the report's canonical encoding.
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
	"strings"
	"time"

	"tcor/internal/arena"
	"tcor/internal/buildinfo"
	"tcor/internal/cache"
	"tcor/internal/experiments"
	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/memmap"
	"tcor/internal/serve"
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
	timeout   time.Duration
	statsPath string
	tracePath string
	check     bool
	evtrace   int
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
	fs.StringVar(&o.config, "config", serve.ConfigTCOR, "configuration: baseline, tcor, tcor-nol2")
	fs.IntVar(&o.sizeKB, "size", 64, "total Tile Cache size in KiB (paper: 64 or 128)")
	fs.IntVar(&o.frames, "frames", 0, "frames to simulate (0 = benchmark default)")
	fs.BoolVar(&o.compare, "compare", false, "run baseline and TCOR and print both")
	fs.StringVar(&o.policy, "policy", "", "race this replacement policy against LRU and OPT on the benchmark's PLB stream (registry name; see paperfig -arena)")
	fs.BoolVar(&o.jsonOut, "json", false, "print the run's canonical JSON encoding (the /v1/simulate body; /v1/sweep under -compare) instead of text")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the -policy race after this duration (0 = no limit)")
	fs.StringVar(&o.statsPath, "stats", "", "write the full hierarchy counter dump as JSON to this file")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace_event JSON span trace (chrome://tracing, Perfetto) to this file")
	fs.BoolVar(&o.check, "check", false, "verify the cross-level stats invariants after each run (violations fail the command)")
	fs.IntVar(&o.evtrace, "evtrace", 0, "record the last N L2 evictions into the -stats dump (0 = off)")
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
	if o.policy == "" && o.timeout > 0 {
		return options{}, fmt.Errorf("-timeout bounds the -policy race; the frame model runs to completion")
	}
	if o.policy != "" {
		canonical, err := cache.CanonicalPolicyName(o.policy)
		if err != nil {
			return options{}, fmt.Errorf("-policy: %w", err)
		}
		o.policy = canonical
		// The policy race runs the PLB-level cache model, not the full GPU
		// pipeline: the flags below configure machinery it never builds.
		for _, f := range []string{"compare", "config", "spec", "evtrace", "check", "stats", "trace"} {
			if set[f] {
				return options{}, fmt.Errorf("-policy races the PLB cache model; it conflicts with -%s", f)
			}
		}
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

// runPolicy races o.policy against the LRU and OPT anchors on the selected
// benchmark through the arena engine, at the arena's default parallelism.
func runPolicy(ctx context.Context, w io.Writer, o options) error {
	r := experiments.NewRunner()
	r.Frames = o.frames
	r.Ctx = ctx
	rep, err := arena.Race(ctx, r, arena.Options{
		Policies:   []string{o.policy, "LRU", "OPT"},
		Benchmarks: []string{o.benchmark},
		SizeKB:     float64(o.sizeKB),
	}, nil)
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

// requests maps the flags onto the API requests the run serves: one, or
// the baseline and TCOR items under -compare.
func requests(o options) ([]serve.SimulateRequest, error) {
	req := serve.SimulateRequest{
		Benchmark: o.benchmark, Config: o.config, TileCacheKB: o.sizeKB, Frames: o.frames,
	}
	if o.specPath != "" {
		data, err := os.ReadFile(o.specPath)
		if err != nil {
			return nil, err
		}
		req.Benchmark, req.Spec = "", data
	}
	if !o.compare {
		return []serve.SimulateRequest{req}, nil
	}
	base, tcor := req, req
	base.Config, tcor.Config = serve.ConfigBaseline, serve.ConfigTCOR
	return []serve.SimulateRequest{base, tcor}, nil
}

func run(ctx context.Context, w io.Writer, o options) error {
	if o.policy != "" {
		return runPolicy(ctx, w, o)
	}
	reqs, err := requests(o)
	if err != nil {
		return err
	}
	var tracer *stats.Tracer
	if o.tracePath != "" {
		tracer = stats.NewTracer(traceCapacity)
	}
	var spec workload.Spec
	names := make([]string, len(reqs))
	cfgs := make([]gpu.Config, len(reqs))
	for i, req := range reqs {
		spec, names[i], cfgs[i], err = serve.Resolve(req)
		if err != nil {
			return err
		}
		cfgs[i].L2TraceDepth = o.evtrace
		cfgs[i].Tracer = tracer
		cfgs[i].TraceTiles = true // full per-tile resolution for single-run analysis
	}
	scene, err := workload.Generate(spec, geom.DefaultScreen())
	if err != nil {
		return err
	}
	if !o.jsonOut {
		st := scene.Stats()
		fmt.Fprintf(w, "benchmark %s (%s): %d primitives, %.2f MiB Parameter Buffer, re-use %.2f, %d frame(s)\n\n",
			spec.Alias, spec.Name, st.Primitives,
			float64(st.PBFootprint)/(1024*1024), st.AvgPrimReuse, scene.NumFrames())
	}
	results, err := gpu.SimulateGroup(scene, cfgs)
	if err != nil {
		return err
	}

	var doc statsDoc
	bodies := make([][]byte, len(results))
	for i, res := range results {
		reg := res.StatsRegistry()
		if o.check {
			if err := reg.Check(); err != nil {
				return fmt.Errorf("%s: invariant check failed:\n%w", names[i], err)
			}
		}
		if o.statsPath != "" {
			sr := statsRun{
				Benchmark: res.Benchmark, Config: names[i], TileCacheKB: o.sizeKB,
				Counters: reg.Snapshot(),
			}
			if res.L2Trace != nil {
				sr.L2Trace = res.L2Trace.Events()
			}
			doc.Runs = append(doc.Runs, sr)
		}
		if o.jsonOut {
			bodies[i], err = serve.EncodeRunResult(serve.BuildRunResult(spec.Alias, names[i], cfgs[i].TileCacheBytes/1024, res))
			if err != nil {
				return err
			}
			continue
		}
		report(w, names[i], o.sizeKB, res)
		if o.check {
			fmt.Fprintf(w, "invariants: ok (%d checked)\n\n", len(reg.InvariantNames()))
		}
	}
	if o.jsonOut {
		body := bodies[0]
		if o.compare {
			if body, err = serve.EncodeSweep(bodies); err != nil {
				return err
			}
		}
		if _, err := w.Write(body); err != nil {
			return err
		}
	}

	if o.statsPath != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
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

// report prints one configuration's text report.
func report(w io.Writer, config string, sizeKB int, res *gpu.Result) {
	fmt.Fprintf(w, "=== %s, %d KiB Tile Cache ===\n", config, sizeKB)
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
			a.Reads, 100*float64(a.ReadHits)/float64(max(a.Reads, 1)),
			a.Writes, a.WriteInserts, a.WriteBypasses, a.Stalls)
		l := res.ListStats
		fmt.Fprintf(w, "prim list cache: %d accesses (%.1f%% hit)\n",
			l.Reads+l.Writes, 100*float64(l.Hits)/float64(max(l.Reads+l.Writes, 1)))
	} else {
		// TileStats.Writebacks also counts the dirty lines the frame-end
		// flush drops with the recycled Parameter Buffer; only TileL2Writes
		// reach the L2.
		ts := res.TileStats
		fmt.Fprintf(w, "tile cache: %d accesses (%.1f%% hit), %d write-backs to L2, %d dirty lines dropped at frame end\n",
			ts.Accesses, 100*ts.HitRatio(), res.TileL2Writes, ts.Writebacks-res.TileL2Writes)
	}
	l2 := res.L2Stats
	fmt.Fprintf(w, "L2: %d accesses (%.1f%% hit), %d writebacks, %d dropped (dead), %d dead evictions\n",
		l2.Reads+l2.Writes, 100*float64(l2.Hits)/float64(max(l2.Reads+l2.Writes, 1)),
		l2.Writebacks, l2.DroppedWritebacks, l2.DeadEvictions)
	fmt.Fprintf(w, "tile fetcher: %.3f primitives/cycle (%d primitives over %d cycles)\n",
		res.PPC(), res.PrimReads, res.TFCycles)
	fmt.Fprintf(w, "frame: %d cycles -> %.1f FPS at 600 MHz\n",
		res.FrameCycles/int64(res.Frames), res.FPS(600e6))
	fmt.Fprintf(w, "energy: memory hierarchy %.3f mJ, total GPU %.3f mJ\n\n",
		res.MemHierarchyPJ/1e9, res.TotalPJ/1e9)
	fmt.Fprintln(w, res.Tally.String())
}
