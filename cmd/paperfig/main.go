// Command paperfig regenerates the tables and figures of the TCOR paper
// (HPCA 2022) from the simulator.
//
// Usage:
//
//	paperfig -fig 14            # one figure (1, 9, 11..24)
//	paperfig -table 2           # Table I or II
//	paperfig -headline          # the abstract-level aggregate numbers
//	paperfig -all               # everything, in paper order
//	paperfig -all -parallel 8   # same, bounded to 8 concurrent simulations
//	paperfig -frames 2 -benchmarks CCS,SoD -fig 20
//	paperfig -all -timeout 10m  # abort if the full pass exceeds 10 minutes
//	paperfig -all -http :0      # expvar + pprof while the sweep runs
//	paperfig -fig 14 -stats m.json  # dump the runner's memo metrics
//	paperfig -all -checkpoint runs.ckpt  # journal runs; resume after a crash
//	paperfig -arena                     # race every replacement policy vs OPT
//	paperfig -arena -policies LRU,OPT,ARC,Learned -size 32
//	paperfig -arena -frames 1 -curves=false -format json  # daemon-parity bytes
//
// Output is byte-identical at every -parallel level: the sweep engine
// fans simulations out through a bounded worker pool but aggregates
// results in deterministic suite order. In -arena mode, -format json emits
// the report's canonical encoding — the exact bytes POST /v1/arena serves
// for the same roster, suite and capacity (the daemon pins frames to 1, so
// pass -frames 1 for byte parity).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tcor/internal/arena"
	"tcor/internal/buildinfo"
	"tcor/internal/cache"
	"tcor/internal/experiments"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

// modes is the list of mutually exclusive output-mode flags that are set.
type modes []string

func (m *modes) add(name string, on bool) {
	if on {
		*m = append(*m, name)
	}
}

// conflict rejects combinations of output modes: each run does one thing,
// so "-all -fig 14" is a contradiction, not a precedence puzzle.
func (m modes) conflict() error {
	if len(m) > 1 {
		return fmt.Errorf("conflicting modes -%s: pass exactly one", strings.Join(m, ", -"))
	}
	return nil
}

// parsePolicies splits and validates a -policies list against the policy
// registry, so a typo fails at the flag instead of deep inside the race.
func parsePolicies(csv string) ([]string, error) {
	if csv == "" {
		return nil, nil
	}
	names := strings.Split(csv, ",")
	for i, n := range names {
		n = strings.TrimSpace(n)
		if _, err := cache.CanonicalPolicyName(n); err != nil {
			return nil, fmt.Errorf("unknown policy %q in -policies (have: %s)",
				n, strings.Join(cache.PolicyNames(), ", "))
		}
		names[i] = n
	}
	return names, nil
}

// parseBenchmarks splits and validates a -benchmarks list against the
// suite, so a typo fails loudly instead of silently vanishing from every
// sweep (Runner.Suite drops aliases it does not know).
func parseBenchmarks(csv string) ([]string, error) {
	if csv == "" {
		return nil, nil
	}
	aliases := strings.Split(csv, ",")
	for i, a := range aliases {
		a = strings.TrimSpace(a)
		if _, err := workload.ByAlias(a); err != nil {
			return nil, fmt.Errorf("unknown benchmark %q in -benchmarks (see paperfig -table 2)", a)
		}
		aliases[i] = a
	}
	return aliases, nil
}

// validateNumbers rejects out-of-range numeric flags with a clear error
// instead of clamping or misbehaving downstream.
func validateNumbers(frames, parallel int, timeout time.Duration) error {
	if frames < 0 {
		return fmt.Errorf("-frames must be non-negative, got %d", frames)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be non-negative, got %d", parallel)
	}
	if timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v", timeout)
	}
	return nil
}

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (1, 9, 11-24)")
	table := flag.Int("table", 0, "table number to regenerate (1 or 2)")
	headline := flag.Bool("headline", false, "print the headline aggregate results")
	ablation := flag.String("ablation", "", "run the design-choice ablation on a benchmark alias (e.g. CCS)")
	renderers := flag.String("renderers", "", "run the parallel-renderer scaling study on a benchmark alias")
	related := flag.Bool("related", false, "run the related-work policy comparison (extended Fig. 13)")
	imr := flag.String("imr", "", "compare TBR against immediate-mode rendering on a benchmark alias")
	sweep := flag.String("sweep", "", "run the Tile Cache size sweep on a benchmark alias")
	falseOverlap := flag.String("falseoverlap", "", "compare exact vs bounding-box binning on a benchmark alias")
	tileSize := flag.String("tilesize", "", "run the tile-size sensitivity study on a benchmark alias")
	reuse := flag.String("reuse", "", "print the reuse-interval profile of a benchmark alias")
	arenaMode := flag.Bool("arena", false, "race the replacement-policy arena: ranked report plus miss-ratio-vs-size curves")
	policiesFlag := flag.String("policies", "", "comma-separated policy roster for -arena (default: every registered policy except PLRU; LRU and OPT always race)")
	arenaSize := flag.Float64("size", 0, "headline capacity in KiB for -arena (0 = paper default)")
	arenaWays := flag.Int("ways", 0, "associativity for -arena (0 = fully associative)")
	arenaCurves := flag.Bool("curves", true, "include the Fig. 11-style size sweep in -arena output")
	all := flag.Bool("all", false, "regenerate every table and figure")
	frames := flag.Int("frames", 0, "frames per benchmark (0 = spec default)")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark aliases (default: all ten)")
	format := flag.String("format", "text", "output format: text or csv")
	outDir := flag.String("out", "", "also write each artifact as CSV into this directory")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	plot := flag.Bool("plot", false, "render policy figures (1, 11, 13) as terminal charts")
	report := flag.String("report", "", "write a full markdown results report to this file")
	statsPath := flag.String("stats", "", "write the runner's memoization/sweep metrics as JSON to this file")
	tracePath := flag.String("trace", "", "write the sweep schedule as Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
	httpAddr := flag.String("http", "", "serve expvar and pprof on this address while running (e.g. :0)")
	checkpoint := flag.String("checkpoint", "", "journal completed runs to this file and resume from it after a crash")
	version := flag.Bool("version", false, "print the build identity and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "paperfig:", err)
		os.Exit(1)
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments: %s", strings.Join(flag.Args(), " ")))
	}
	if err := validateNumbers(*frames, *parallel, *timeout); err != nil {
		fail(err)
	}
	var m modes
	m.add("fig", *fig != 0)
	m.add("table", *table != 0)
	m.add("headline", *headline)
	m.add("all", *all)
	m.add("ablation", *ablation != "")
	m.add("renderers", *renderers != "")
	m.add("related", *related)
	m.add("imr", *imr != "")
	m.add("sweep", *sweep != "")
	m.add("falseoverlap", *falseOverlap != "")
	m.add("tilesize", *tileSize != "")
	m.add("reuse", *reuse != "")
	m.add("arena", *arenaMode)
	m.add("report", *report != "")
	if err := m.conflict(); err != nil {
		fail(err)
	}
	aliases, err := parseBenchmarks(*benchmarks)
	if err != nil {
		fail(err)
	}
	roster, err := parsePolicies(*policiesFlag)
	if err != nil {
		fail(err)
	}
	if *arenaSize < 0 {
		fail(fmt.Errorf("-size must be non-negative, got %g", *arenaSize))
	}

	jsonOut := false
	switch *format {
	case "text":
	case "csv":
		printTableOut = func(t *experiments.Table) { fmt.Print(t.CSV()) }
	case "json":
		// Only the arena has a canonical JSON encoding shared with the
		// daemon; the table modes stay text/csv.
		if !*arenaMode {
			fail(fmt.Errorf("-format json is only valid with -arena"))
		}
		jsonOut = true
	default:
		fail(fmt.Errorf("unknown format %q (text, csv, json)", *format))
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
		inner := printTableOut
		printTableOut = func(t *experiments.Table) {
			inner(t)
			path := filepath.Join(*outDir, slugify(t.Title)+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "paperfig: writing", path, ":", err)
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var tracer *stats.Tracer
	if *tracePath != "" {
		// Every sweep job wraps itself in a span when the runner's context
		// carries a tracer, so the export shows how the schedule packed onto
		// the worker pool.
		tracer = stats.NewTracer(1 << 16)
		ctx = stats.ContextWithTracer(ctx, tracer)
	}
	prewarmPar = *parallel

	r := experiments.NewRunner()
	r.Frames = *frames
	r.Parallel = *parallel
	r.Ctx = ctx
	r.Benchmarks = aliases
	if *checkpoint != "" {
		restored, err := r.OpenCheckpoint(*checkpoint)
		if err != nil {
			fail(err)
		}
		defer r.Checkpoint.Close()
		if restored > 0 {
			fmt.Fprintf(os.Stderr, "paperfig: resumed %d completed runs from %s\n", restored, *checkpoint)
		}
	}

	if *httpAddr != "" {
		// The metrics registry is live: publishing before the work starts
		// lets /debug/vars show memo hits/misses accumulate mid-sweep.
		stats.PublishExpvar("paperfig", r.Metrics())
		addr, stop, err := stats.ServeDebug(*httpAddr)
		if err != nil {
			fail(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "paperfig: debug server on http://%s/debug/vars\n", addr)
	}

	plotFigures = *plot
	if err := execute(r, execOpts{
		fig: *fig, table: *table, headline: *headline, all: *all,
		ablation: *ablation, renderers: *renderers, related: *related,
		imr: *imr, sweep: *sweep, falseOverlap: *falseOverlap,
		tileSize: *tileSize, reuse: *reuse, report: *report,
		arena: *arenaMode, policies: roster, size: *arenaSize,
		ways: *arenaWays, curves: *arenaCurves, jsonOut: jsonOut,
	}); err != nil {
		fail(err)
	}
	if *statsPath != "" {
		if err := writeStats(r, *statsPath); err != nil {
			fail(err)
		}
	}
	if *tracePath != "" {
		if err := writeTrace(tracer, *tracePath); err != nil {
			fail(err)
		}
	}
}

// writeTrace exports the recorded sweep spans as Chrome trace_event JSON.
func writeTrace(tracer *stats.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// execOpts selects what one paperfig invocation produces.
type execOpts struct {
	fig, table                            int
	headline, all, related                bool
	ablation, renderers, imr, sweep       string
	falseOverlap, tileSize, reuse, report string

	arena           bool
	policies        []string
	size            float64
	ways            int
	curves, jsonOut bool
}

// execute dispatches the single selected mode.
func execute(r *experiments.Runner, o execOpts) error {
	switch {
	case o.arena:
		return runArena(r, o)
	case o.report != "":
		if err := r.Prewarm(prewarmPar); err != nil {
			return err
		}
		f, err := os.Create(o.report)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteReport(f, time.Now()); err != nil {
			return err
		}
		fmt.Println("wrote", o.report)
		return nil
	case o.tileSize != "":
		t, _, err := r.TileSizeSweep(o.tileSize)
		if err != nil {
			return err
		}
		printTableOut(t)
		return nil
	case o.falseOverlap != "":
		t, err := r.FalseOverlap(o.falseOverlap)
		if err != nil {
			return err
		}
		printTableOut(t)
		return nil
	case o.sweep != "":
		t, _, err := r.SizeSweep(o.sweep)
		if err != nil {
			return err
		}
		printTableOut(t)
		return nil
	case o.imr != "":
		t, err := r.TBRvsIMR(o.imr)
		if err != nil {
			return err
		}
		printTableOut(t)
		return nil
	case o.related:
		t, err := r.RelatedWork(48)
		if err != nil {
			return err
		}
		printTableOut(t)
		return nil
	case o.reuse != "":
		t, err := r.ReuseProfile(o.reuse)
		if err != nil {
			return err
		}
		printTableOut(t)
		return nil
	case o.renderers != "":
		p, err := r.ParallelRenderers(o.renderers, 64)
		if err != nil {
			return err
		}
		printTableOut(p.Table())
		return nil
	case o.ablation != "":
		a, err := r.Ablation(o.ablation, 64)
		if err != nil {
			return err
		}
		printTableOut(a.Table())
		return nil
	}
	return run(r, o.fig, o.table, o.headline, o.all)
}

// runArena races the selected roster and renders the ranked report. With
// -format json it emits the report's canonical bytes — identical to what
// POST /v1/arena serves for the same race (pass -frames 1: the daemon pins
// a single frame on its shared runner).
func runArena(r *experiments.Runner, o execOpts) error {
	rep, err := arena.Race(r.Ctx, r, arena.Options{
		Policies:   o.policies,
		Benchmarks: r.Benchmarks,
		SizeKB:     o.size,
		Ways:       o.ways,
		Curves:     o.curves,
		Parallel:   r.Parallel,
	})
	if err != nil {
		return err
	}
	if o.jsonOut {
		body, err := rep.Encode()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(body)
		return err
	}
	for _, t := range rep.Tables() {
		printTableOut(t)
	}
	return nil
}

// writeStats dumps the runner's live metrics registry (memo hits/misses per
// table) as JSON.
func writeStats(r *experiments.Runner, path string) error {
	blob, err := json.MarshalIndent(r.Metrics().Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote stats to", path)
	return nil
}

// printTableOut renders a table in the selected output format.
var printTableOut = func(t *experiments.Table) { fmt.Println(t) }

// prewarmPar is the -parallel flag value used by the -all prewarm
// (0 = GOMAXPROCS).
var prewarmPar = 0

// plotFigures selects ASCII charts for the policy figures.
var plotFigures = false

// slugify turns a table title into a file name.
func slugify(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == ':' || r == '/' || r == ',':
			if n := b.String(); len(n) > 0 && n[len(n)-1] != '-' {
				b.WriteByte('-')
			}
		}
		if b.Len() > 48 {
			break
		}
	}
	return strings.TrimRight(b.String(), "-")
}

func run(r *experiments.Runner, fig, table int, headline, all bool) error {
	if all {
		if err := r.Prewarm(prewarmPar); err != nil {
			return err
		}
		for _, t := range []int{1, 2} {
			if err := printTable(r, t); err != nil {
				return err
			}
		}
		for _, f := range []int{1, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24} {
			if err := printFig(r, f); err != nil {
				return err
			}
		}
		return printHeadline(r)
	}
	if table != 0 {
		return printTable(r, table)
	}
	if fig != 0 {
		return printFig(r, fig)
	}
	if headline {
		return printHeadline(r)
	}
	flag.Usage()
	return fmt.Errorf("nothing to do: pass -fig, -table, -headline or -all")
}

func printTable(r *experiments.Runner, n int) error {
	switch n {
	case 1:
		printTableOut(experiments.TableI())
	case 2:
		t, err := r.TableII()
		if err != nil {
			return err
		}
		printTableOut(t)
	default:
		return fmt.Errorf("unknown table %d", n)
	}
	return nil
}

func printFig(r *experiments.Runner, n int) error {
	var t *experiments.Table
	var err error
	switch n {
	case 1:
		var f *experiments.PolicyFigure
		if f, err = r.Fig1(); err == nil {
			if plotFigures {
				fmt.Print(f.AsciiPlot(70, 18))
				return nil
			}
			t = f.Table()
		}
	case 9, 10:
		t, err = experiments.Fig910()
	case 11:
		var f *experiments.PolicyFigure
		if f, err = r.Fig11(); err == nil {
			if plotFigures {
				fmt.Print(f.AsciiPlot(70, 18))
				return nil
			}
			t = f.Table()
		}
	case 12:
		figs, e := r.Fig12()
		if e != nil {
			return e
		}
		for _, pol := range []string{"LRU", "OPT"} {
			ft := figs[pol].Table()
			ft.Title = fmt.Sprintf("Figure 12 (%s): miss ratio vs size and associativity", pol)
			printTableOut(ft)
		}
		return nil
	case 13:
		var f *experiments.PolicyFigure
		if f, err = r.Fig13(); err == nil {
			if plotFigures {
				fmt.Print(f.AsciiPlot(70, 18))
				return nil
			}
			t = f.Table()
		}
	case 14, 15, 16, 17, 18, 19:
		var f *experiments.TrafficFigure
		switch n {
		case 14:
			f, err = r.Fig14()
		case 15:
			f, err = r.Fig15()
		case 16:
			f, err = r.Fig16()
		case 17:
			f, err = r.Fig17()
		case 18:
			f, err = r.Fig18()
		case 19:
			f, err = r.Fig19()
		}
		if err == nil {
			t = f.Table()
		}
	case 20, 21:
		var f *experiments.EnergyFigure
		if n == 20 {
			f, err = r.Fig20()
		} else {
			f, err = r.Fig21()
		}
		if err == nil {
			t = f.Table()
		}
	case 22:
		var f *experiments.GPUEnergyFigure
		if f, err = r.Fig22(); err == nil {
			t = f.Table()
		}
	case 23, 24:
		var f *experiments.ThroughputFigure
		if n == 23 {
			f, err = r.Fig23()
		} else {
			f, err = r.Fig24()
		}
		if err == nil {
			t = f.Table()
		}
	default:
		return fmt.Errorf("unknown figure %d", n)
	}
	if err != nil {
		return err
	}
	printTableOut(t)
	return nil
}

func printHeadline(r *experiments.Runner) error {
	h, err := r.Headline()
	if err != nil {
		return err
	}
	printTableOut(h.Table())
	return nil
}
