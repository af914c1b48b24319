package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of compare, following the rules of the choosing-metrics
// method: a gain needs nine wins in ten pairs and a median shift beyond
// the parent's own spread; a loss beyond the metric's bound is a
// regression; a spread wider than the bound leaves the metric unresolved.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, end-to-end metric) row of compare.
type comparison struct {
	base, cand    summary
	worseBy       float64 // relative change of the median, positive = worse
	spread        float64 // the base's interquartile range over its median
	wins, pairs   int
	verdict       string
	allCandBetter bool
}

type summary struct {
	n           int
	q1, p50, q3 float64
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{n: len(xs), q1: q1, p50: q2, q3: q3}
}

// judge compares the candidate's runs of one metric with the base's. Runs
// are paired in order; ties count for neither side.
func judge(m metricSpec, base, cand []float64) comparison {
	c := comparison{base: summarize(base), cand: summarize(cand)}
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	if c.base.p50 != 0 {
		c.worseBy = (c.cand.p50 - c.base.p50) / c.base.p50
		c.spread = (c.base.q3 - c.base.q1) / c.base.p50
	}
	if m.Better == "higher" {
		c.worseBy = -c.worseBy
	}
	c.pairs = min(len(base), len(cand))
	for i := 0; i < c.pairs; i++ {
		if better(cand[i], base[i]) {
			c.wins++
		}
	}
	c.allCandBetter = len(base) > 0 && len(cand) > 0
	for _, x := range cand {
		for _, y := range base {
			if !better(x, y) {
				c.allCandBetter = false
			}
		}
	}
	switch {
	case c.pairs > 0 && c.wins*10 >= c.pairs*9 && -c.worseBy > c.spread:
		c.verdict = verdictImproved
	case c.spread > m.Bound && !c.allCandBetter:
		c.verdict = verdictUnresolved
	case c.worseBy > m.Bound:
		c.verdict = verdictWorse
	default:
		c.verdict = verdictNoWorse
	}
	return c
}

// loadResults reads the untraced result files under dir, oldest first.
func loadResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []resultFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Started.Before(out[j].Started) })
	return out, nil
}

// sameSetting refuses result sets measured on different machines or with
// different run lengths: their numbers do not compare.
func sameSetting(sets ...[]resultFile) error {
	var ref *resultFile
	for _, set := range sets {
		for i := range set {
			r := &set[i]
			if ref == nil {
				ref = r
				continue
			}
			if r.Machine != ref.Machine {
				return fmt.Errorf("results come from different machines: %+v and %+v", ref.Machine, r.Machine)
			}
			if r.Seconds != ref.Seconds {
				return fmt.Errorf("results use different run lengths: %ds and %ds", ref.Seconds, r.Seconds)
			}
		}
	}
	return nil
}

// runCompare prints, per workload and end-to-end metric, the medians and
// quartiles of two sets of result files and a verdict for the second set
// against the first, using the bounds of BENCHMARK.json.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcorbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tcorbench compare [--bench BENCHMARK.json] BASE_DIR NEW_DIR")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tcorbench compare:", err)
		return 1
	}
	spec, err := loadSpec(*benchPath)
	if err != nil {
		return fail(err)
	}
	base, err := loadResults(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	cand, err := loadResults(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	if err := sameSetting(base, cand); err != nil {
		return fail(err)
	}
	values := func(set []resultFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range set {
			if mv, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, mv.Value)
			}
		}
		return out
	}
	fmt.Fprintf(stdout, "%-14s %-12s %-30s %-30s %8s %7s %s\n",
		"workload", "metric", "base p50 [q1 q3] (n)", "new p50 [q1 q3] (n)", "change", "wins", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := values(base, w.Name, m.Name), values(cand, w.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			r := judge(m, b, c)
			fmt.Fprintf(stdout, "%-14s %-12s %-30s %-30s %+7.1f%% %3d/%-3d %s\n",
				w.Name, m.Name, formatSummary(r.base), formatSummary(r.cand),
				100*signedChange(m, r.worseBy), r.wins, r.pairs, r.verdict)
		}
	}
	return 0
}

// signedChange turns "worse by" back into the direction the metric moved.
func signedChange(m metricSpec, worseBy float64) float64 {
	if m.Better == "higher" {
		return -worseBy
	}
	return worseBy
}

func formatSummary(s summary) string {
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g %.4g] (%d)", s.p50, s.q1, s.q3, s.n))
}
