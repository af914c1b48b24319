// Command tcorbench is the repository benchmark. It drives the simulator,
// the paper-figure harness and the sharded HTTP service from outside,
// through their public packages, checks every output it measures, and
// prints the metrics BENCHMARK.json names.
//
// Build and run it from the repository root through the wrapper, which
// keeps every build artifact under .bench_build/:
//
//	bash bench/run.sh --workload frame-raster --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh all --seed 1
//	bash bench/run.sh compare BASE_DIR NEW_DIR
//
// A run measures one workload for --seconds after its set-up. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it reports
// the per-layer decomposition and writes a Chrome trace of the benchmark's
// own spans. Either way the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}, and a result file
// recording the machine and the build lands in --out. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"tcor/internal/stats"
)

// workloads maps each workload name of BENCHMARK.json onto the function
// that runs it.
var workloads = map[string]func(*runContext) (*outcome, error){
	"frame-raster":  runFrameRaster,
	"frame-pb":      runFramePB,
	"paper-report":  runPaper,
	"serve-cluster": runServe,
}

// runContext is what a workload function receives: the seeded input
// selection, the measurement window and, in a traced run, the tracer that
// records the benchmark's spans around every layer call.
type runContext struct {
	seed   int64
	window time.Duration
	root   string
	tracer *stats.Tracer // nil in an untraced run
	calib  *calibrator   // the run's calibration samples (calib.go)
}

func (rc *runContext) traced() bool { return rc.tracer != nil }

// outcome is what a workload function reports back.
type outcome struct {
	attempted, failed int
	failures          []string
	// setups holds the seconds each repetition of the set-up took, at the
	// reference speed (calib.go), and rawSetups as measured; the run
	// reports the median of setups as setup_s.
	setups, rawSetups []float64
	// rss measures the peak resident set of segments of fixed work, none
	// of which starts before the workload's memory has reached its steady
	// state; the median is reported as peak_rss_mb. Fixed work rather than
	// fixed time keeps the number independent of speed: the serving cache,
	// for one, fills with the results it computes, so over a fixed time a
	// faster simulator would read as a bigger one.
	rss rssSegments
	// metrics holds the workload's values of the BENCHMARK.json metrics it
	// exercises, except setup_s and peak_rss_mb, which runOne adds from
	// setups and rss.
	metrics map[string]float64
	// details holds workload-specific extras for the result file: sample
	// counts, tail percentiles, output digests.
	details map[string]any
}

// setupCalibSamples is the number of calibration samples taken before
// each set-up repetition.
const setupCalibSamples = 3

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, details: map[string]any{}}
}

// addSetup records one set-up repetition that took d (CPU or wall time,
// see calib.go), with scale the calibration factor sampled right before
// it.
func (o *outcome) addSetup(d time.Duration, scale float64) {
	o.setups = append(o.setups, d.Seconds()*scale)
	o.rawSetups = append(o.rawSetups, d.Seconds())
}

// fail records one failed operation; the first few messages are kept for
// the result file.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
		case "all":
			os.Exit(runAll(os.Args[2:]))
		}
	}
	os.Exit(runOne(os.Args[1:], os.Stdout, os.Stderr))
}

// runOne measures one workload and prints its result.
func runOne(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcorbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: frame-raster, frame-pb, paper-report or serve-cluster")
	seed := fs.Int64("seed", 1, "input seed (1 is the default, 2 the held-out seed)")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition naming the metrics and their units")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tcorbench:", err)
		return 1
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected arguments: %v", fs.Args()))
	}
	drive, ok := workloads[*name]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	spec, err := loadSpec(*benchPath)
	if err != nil {
		return fail(err)
	}
	root := filepath.Dir(*benchPath)
	rc := &runContext{seed: *seed, window: time.Duration(*seconds) * time.Second, root: root, calib: &calibrator{}}
	if *trace == 1 {
		rc.tracer = stats.NewTracer(1 << 18)
	}

	started := time.Now()
	o, err := drive(rc)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *name, err))
	}
	o.metrics["setup_s"] = median(o.setups)
	o.details["setup_s_raw"] = median(o.rawSetups)
	o.details["calibration"] = rc.calib.summary()
	if o.metrics["peak_rss_mb"], err = o.rss.median(); err != nil {
		return fail(err)
	}
	o.details["rss_segments"] = len(o.rss.peaks)

	catalog := spec.EndToEnd
	if rc.traced() {
		catalog = spec.PerLayer
	}
	metrics, err := selectMetrics(catalog, o.metrics, !rc.traced())
	if err != nil {
		return fail(err)
	}
	res := resultFile{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: rc.traced(),
		Started: started.UTC(), Machine: currentMachine(), Build: currentBuild(root),
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Failures: o.failures, Metrics: metrics, Details: o.details,
	}
	if res.Attempted < 1 {
		return fail(errors.New("no operation completed in the window"))
	}
	path, err := res.write(*outDir)
	if err != nil {
		return fail(err)
	}
	if rc.traced() {
		tf := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeChromeTrace(rc.tracer, tf); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace: %s\n", tf)
	}

	fmt.Fprintf(stdout, "%s seed=%d seconds=%d trace=%d attempted=%d failed=%d result=%s\n",
		*name, *seed, *seconds, *trace, res.Attempted, res.Failed, path)
	for _, f := range o.failures {
		fmt.Fprintf(stdout, "  FAILED: %s\n", f)
	}
	for _, m := range catalog {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// selectMetrics picks the catalog's metrics out of a workload's values. A
// per-layer metric the workload does not exercise reads 0; an end-to-end
// metric must be present (strict), since every workload reports all of
// them.
func selectMetrics(catalog []metricSpec, values map[string]float64, strict bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(catalog))
	for _, m := range catalog {
		v, ok := values[m.Name]
		if !ok && strict {
			return nil, fmt.Errorf("workload did not measure %s", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is the record one run leaves in --out.
type resultFile struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Started   time.Time              `json:"started"`
	Machine   Machine                `json:"machine"`
	Build     Build                  `json:"build"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Details   map[string]any         `json:"details,omitempty"`
}

func (r *resultFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%s.json",
		r.Workload, r.Seed, trace, r.Started.Format("20060102T150405.000000000")))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeChromeTrace(t *stats.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload of BENCHMARK.json, untraced and then traced,
// each in its own process, so one command prints every metric.
func runAll(args []string) int {
	fs := flag.NewFlagSet("tcorbench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 0, "window per run (0 = run_seconds of BENCHMARK.json)")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcorbench:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcorbench:", err)
		return 1
	}
	status := 0
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(*seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", trace, "--bench", *benchPath)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "tcorbench: %s trace=%s: %v\n", w.Name, trace, err)
				status = 1
			}
		}
	}
	return status
}
