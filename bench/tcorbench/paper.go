package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"tcor/internal/experiments"
	"tcor/internal/stats"
)

// paperSetupRepeats is how often a paper-report run prepares its inputs;
// setup_s is the median.
const paperSetupRepeats = 5

// runPaper is the paper-report workload: a closed loop with one caller
// where each operation is one cold experiments runner regenerating the
// whole RESULTS.md report, as `paperfig -report -parallel <nproc>` does.
// It ignores the seed: its reference is the fixed Table II suite, and the
// output must equal the committed RESULTS.md except for its Generated line.
func runPaper(rc *runContext) (*outcome, error) {
	o := newOutcome()
	var want []byte
	for i := 0; i < paperSetupRepeats; i++ {
		// Set-up: read the committed report and generate the Table II
		// scenes the operations regenerate in their cold runners.
		scale := rc.calib.scaleNow(setupCalibSamples)
		c0 := cpuTime()
		var err error
		if want, err = os.ReadFile(filepath.Join(rc.root, "RESULTS.md")); err != nil {
			return nil, fmt.Errorf("reading the reference report: %w", err)
		}
		r := experiments.NewRunner()
		for _, s := range r.Suite() {
			if _, err := r.Scene(s.Alias); err != nil {
				return nil, err
			}
		}
		o.addSetup(cpuTime()-c0, scale)
		runtime.GC() // the repetition's garbage is not the workload's footprint
	}
	errPct, terms, err := paperError(string(want))
	if err != nil {
		return nil, fmt.Errorf("RESULTS.md: %w", err)
	}

	// The reports use every CPU, so the calibration kernel is sampled in
	// the background while they run, and each report is brought to the
	// reference speed by the samples taken during it.
	type span struct{ from, to time.Time }
	var (
		times, traced []float64
		spans         []span
	)
	layers := map[string][]float64{}
	stopCalib := rc.calib.sampleEvery(calibPeriod)
	start := time.Now()
	for i := 0; time.Since(start) < rc.window; i++ {
		// Each report starts from a released heap, as in a fresh paperfig
		// process, and is one segment of peak_rss_mb.
		debug.FreeOSMemory()
		o.rss.next()
		from := time.Now()
		o.attempted++
		// A traced run alternates traced and untraced operations, traced
		// first, for trace.overhead_pct.
		tracedOp := rc.traced() && i%2 == 0
		var (
			got []byte
			d   time.Duration
			err error
		)
		if tracedOp {
			got, d, err = tracedReport(rc.tracer, layers)
		} else {
			got, d, err = coldReport()
		}
		o.rss.end()
		if err == nil {
			err = sameReport(got, want)
		}
		if err != nil {
			o.fail("report %d: %v", i, err)
			continue
		}
		if tracedOp {
			traced = append(traced, ms(d))
		} else {
			times = append(times, ms(d))
			spans = append(spans, span{from, time.Now()})
		}
	}
	stopCalib()
	norm := make([]float64, len(times))
	for i, t := range times {
		norm[i] = t * rc.calib.scaleOver(spans[i].from, spans[i].to)
	}

	at := opSummary(norm)
	o.metrics["op_ms_p50"] = at["op_ms_p50"]
	o.details["op_ms_p90"], o.details["ops_per_s"] = at["op_ms_p90"], at["ops_per_s"]
	o.details["raw"] = opSummary(times)
	o.details["reports"] = len(times)
	o.details["paper_err_terms"] = terms
	if !rc.traced() {
		o.details["paper_err_pct"] = errPct
		return o, nil
	}
	for k, v := range layers {
		o.metrics[k] = median(v)
	}
	o.metrics["experiments.paper_err_pct"] = errPct
	if len(times) > 0 && len(traced) > 0 {
		o.metrics["trace.overhead_pct"] = 100 * (median(traced)/median(times) - 1)
	}
	return o, nil
}

// opSummary returns the median, the 90th percentile and the rate of a
// closed loop's operation times (ms).
func opSummary(times []float64) map[string]float64 {
	var total float64
	for _, t := range times {
		total += t
	}
	out := map[string]float64{"op_ms_p50": median(times), "op_ms_p90": percentile(times, 90)}
	if total > 0 {
		out["ops_per_s"] = float64(len(times)) / (total / 1000)
	}
	return out
}

func newReportRunner() *experiments.Runner {
	r := experiments.NewRunner()
	r.Parallel = runtime.NumCPU()
	return r
}

// coldReport is one untraced operation: Prewarm then WriteReport on a
// fresh runner.
func coldReport() ([]byte, time.Duration, error) {
	r := newReportRunner()
	var buf bytes.Buffer
	t0 := time.Now()
	if err := r.Prewarm(r.Parallel); err != nil {
		return nil, 0, err
	}
	if err := r.WriteReport(&buf, time.Now()); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), time.Since(t0), nil
}

// tracedReport is the same operation split at the experiments layer's
// public calls, with the runner's sweep jobs traced: scene generation,
// the Figs. 14-24 prewarm sweep and the report rendering. The returned
// duration covers those three, so it compares with coldReport's. The
// related-work policy study is then timed again on the warm runner.
func tracedReport(t *stats.Tracer, layers map[string][]float64) ([]byte, time.Duration, error) {
	r := newReportRunner()
	r.Ctx = stats.ContextWithTracer(context.Background(), t)
	op := t.Begin("report-op", "bench")
	defer op.End()
	var buf bytes.Buffer
	cpu0 := cpuTime()
	start := time.Now()
	steps := []struct {
		metric, span string
		run          func() error
	}{
		{"experiments.scene_ms", "experiments.Scene", func() error {
			for _, s := range r.Suite() {
				if _, err := r.Scene(s.Alias); err != nil {
					return err
				}
			}
			return nil
		}},
		{"experiments.prewarm_ms", "experiments.Prewarm", func() error { return r.Prewarm(r.Parallel) }},
		{"experiments.render_ms", "experiments.WriteReport", func() error { return r.WriteReport(&buf, time.Now()) }},
	}
	for _, s := range steps {
		sp := op.Child(s.span, "bench")
		t0 := time.Now()
		err := s.run()
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return nil, 0, err
		}
		layers[s.metric] = append(layers[s.metric], ms(d))
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0

	sp := op.Child("experiments.RelatedWork", "bench")
	t0 := time.Now()
	_, err := r.RelatedWork(48)
	policy := time.Since(t0)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	layers["experiments.policy_ms"] = append(layers["experiments.policy_ms"], ms(policy))

	snap := r.Metrics().Snapshot()
	var hits, misses int64
	for k, v := range snap {
		switch {
		case strings.HasSuffix(k, ".hits"):
			hits += v
		case strings.HasSuffix(k, ".misses"):
			misses += v
		}
	}
	layers["experiments.sims"] = append(layers["experiments.sims"], float64(snap["memo.runs.misses"]))
	layers["experiments.memo_hit_ratio"] = append(layers["experiments.memo_hit_ratio"], ratio(hits, hits+misses))
	layers["experiments.cpu_util_pct"] = append(layers["experiments.cpu_util_pct"],
		100*cpu.Seconds()/(wall.Seconds()*float64(runtime.NumCPU())))
	return buf.Bytes(), wall, nil
}

// sameReport compares a regenerated report with the committed one, except
// for the Generated line, which carries the time of generation.
func sameReport(got, want []byte) error {
	g, w := reportLines(got), reportLines(want)
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("report differs from RESULTS.md at line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return nil
}

func reportLines(b []byte) []string {
	lines := strings.Split(string(b), "\n")
	out := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "Generated ") {
			out = append(out, l)
		}
	}
	return out
}

// reportNumber matches a percentage or a speed-up factor in a report cell.
var reportNumber = regexp.MustCompile(`(\d+(?:\.\d+)?)\s*(%|x)`)

func reportNumbers(s string) []float64 {
	var out []float64
	for _, m := range reportNumber.FindAllStringSubmatch(s, -1) {
		var v float64
		fmt.Sscan(m[1], &v) //nolint:errcheck // the pattern admits only numbers
		out = append(out, v)
	}
	return out
}

// paperError returns the mean relative error, in percent, of a RESULTS.md
// report against the paper: |ours - paper| / |paper| over the four
// headline numbers and every value of the Fig. 14-24 rows, each compared
// in magnitude (both sides state reductions as reductions). terms is the
// number of values compared.
func paperError(report string) (pct float64, terms int, err error) {
	lines := strings.Split(report, "\n")
	var sum float64
	add := func(where string, paper, ours []float64) error {
		if len(paper) == 0 || len(paper) != len(ours) {
			return fmt.Errorf("%s: %d paper values against %d of ours", where, len(paper), len(ours))
		}
		for i := range paper {
			sum += math.Abs(ours[i]-paper[i]) / math.Abs(paper[i])
			terms++
		}
		return nil
	}
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "## Headline (paper:"):
			var ours []float64
			for _, b := range lines[i+1:] {
				if strings.HasPrefix(b, "## ") {
					break
				}
				if strings.HasPrefix(b, "- ") {
					ours = append(ours, reportNumbers(b)...)
				}
			}
			if err := add("headline", reportNumbers(l), ours); err != nil {
				return 0, 0, err
			}
		case strings.HasPrefix(l, "| Fig."):
			cells := strings.Split(l, "|")
			if len(cells) < 4 {
				return 0, 0, fmt.Errorf("malformed figure row %q", l)
			}
			if err := add(strings.TrimSpace(cells[1]), reportNumbers(cells[2]), reportNumbers(cells[3])); err != nil {
				return 0, 0, err
			}
		}
	}
	if terms == 0 {
		return 0, 0, fmt.Errorf("no headline or figure rows found")
	}
	return 100 * sum / float64(terms), terms, nil
}
