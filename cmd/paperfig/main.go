// Command paperfig regenerates the tables and figures of the TCOR paper
// (HPCA 2022) from the simulator.
//
// Usage:
//
//	paperfig -fig 14            # one figure of the catalogue (experiments.Paper)
//	paperfig -table 2           # Table I or II
//	paperfig -headline          # the abstract-level aggregate numbers
//	paperfig -all               # everything, in paper order
//	paperfig -all -parallel 8   # same, bounded to 8 concurrent simulations
//	paperfig -frames 2 -benchmarks CCS,SoD -fig 20
//	paperfig -all -timeout 10m  # abort if the full pass exceeds 10 minutes
//	paperfig -all -http :0      # live /metrics + pprof while the sweep runs
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
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
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

// formatUsage is -format's help text. It names every format the switch on
// *format in main accepts (TestFormatUsageNamesEveryFormat).
const formatUsage = "output format: text, csv or json (json needs -arena)"

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (1, 9, 11-24)")
	table := flag.Int("table", 0, "table number to regenerate (1 or 2)")
	headline := flag.Bool("headline", false, "print the headline aggregate results")
	for _, s := range experiments.Studies {
		if s.Bench {
			flag.String(s.Mode, "", s.Usage)
		} else {
			flag.Bool(s.Mode, false, s.Usage)
		}
	}
	arenaMode := flag.Bool("arena", false, "race the replacement-policy arena: ranked report plus miss-ratio-vs-size curves")
	policiesFlag := flag.String("policies", "", "comma-separated policy roster for -arena (default: every registered policy except PLRU; LRU and OPT always race)")
	arenaSize := flag.Float64("size", 0, "headline capacity in KiB for -arena (0 = paper default)")
	arenaWays := flag.Int("ways", 0, "associativity for -arena (0 = fully associative)")
	arenaCurves := flag.Bool("curves", true, "include the Fig. 11-style size sweep in -arena output")
	all := flag.Bool("all", false, "regenerate every table and figure")
	frames := flag.Int("frames", 0, "frames per benchmark (0 = spec default)")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark aliases (default: all ten)")
	format := flag.String("format", "text", formatUsage)
	outDir := flag.String("out", "", "also write each artifact as CSV into this directory")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	plot := flag.Bool("plot", false, "render policy figures (1, 11, 13) as terminal charts")
	report := flag.String("report", "", "write a full markdown results report to this file")
	statsPath := flag.String("stats", "", "write the runner's memoization/sweep metrics as JSON to this file")
	tracePath := flag.String("trace", "", "write the sweep schedule as Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
	httpAddr := flag.String("http", "", "serve live /metrics and pprof on this address while running (e.g. :0)")
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
	var alias string // the benchmark of a per-benchmark study
	for _, s := range experiments.Studies {
		f := flag.Lookup(s.Mode)
		set := f.Value.String() != f.DefValue
		m.add(s.Mode, set)
		if set && s.Bench {
			alias = f.Value.String()
		}
	}
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
		// The metrics registry is live: serving it before the work starts
		// lets /metrics show memo hits/misses accumulate mid-sweep.
		addr, stop, err := stats.ServeDebug(*httpAddr, "paperfig", r.Metrics())
		if err != nil {
			fail(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "paperfig: debug server on http://%s/metrics\n", addr)
	}

	o := execOpts{num: *fig, alias: alias, plot: *plot, report: *report,
		policies: roster, size: *arenaSize, ways: *arenaWays, curves: *arenaCurves, jsonOut: jsonOut}
	if *table != 0 {
		o.num = *table
	}
	if len(m) == 1 {
		o.mode = m[0]
	}
	if err := execute(r, o); err != nil {
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
	mode   string // the selected mode flag; "" when none is set
	num    int    // the -fig or -table number
	alias  string // a per-benchmark study's benchmark
	plot   bool
	report string

	policies        []string
	size            float64
	ways            int
	curves, jsonOut bool
}

// execute dispatches the single selected mode. Every mode but -arena and
// -report prints catalogue artifacts.
func execute(r *experiments.Runner, o execOpts) error {
	switch o.mode {
	case "arena":
		return runArena(os.Stdout, r, o)
	case "report":
		if err := r.Prewarm(r.Parallel); err != nil {
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
	case "all":
		if err := r.Prewarm(r.Parallel); err != nil {
			return err
		}
		for _, a := range experiments.Paper {
			if err := show(r, a, o); err != nil {
				return err
			}
		}
		return nil
	case "":
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -fig, -table, -headline or -all")
	}
	a, err := experiments.Find(o.mode, o.num)
	if err != nil {
		return err
	}
	return show(r, a, o)
}

// show prints one artifact: its tables, or with -plot its chart when it
// has one.
func show(r *experiments.Runner, a experiments.Artifact, o execOpts) error {
	if o.plot && a.Plot != nil {
		chart, err := a.Plot(r)
		if err != nil {
			return err
		}
		fmt.Print(chart)
		return nil
	}
	tables, err := a.Tables(r, o.alias)
	if err != nil {
		return err
	}
	for _, t := range tables {
		printTableOut(t)
	}
	return nil
}

// runArena races the selected roster and renders the ranked report. With
// -format json it writes the report's canonical bytes to w — identical to
// what POST /v1/arena serves for the same race (pass -frames 1: the daemon
// pins a single frame on its shared runner).
func runArena(w io.Writer, r *experiments.Runner, o execOpts) error {
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
		_, err = w.Write(body)
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
	var buf bytes.Buffer
	if err := r.Metrics().Snapshot().WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote stats to", path)
	return nil
}

// printTableOut renders a table in the selected output format.
var printTableOut = func(t *experiments.Table) { fmt.Println(t) }

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
