// Command benchcmp snapshots `go test -bench` output into a JSON baseline
// and compares later runs against it, failing on regressions. It is the CI
// bench gate for the whole-frame simulator and the figure harness
// (docs/MODEL.md §12):
//
//	go test -run '^$' -bench 'Headline|TableII_Workloads|FullFrame' \
//	    -benchmem -count 10 . | benchcmp -snapshot BENCH_baseline.json
//
//	go test -run '^$' -bench ... -benchmem -count 10 . | \
//	    benchcmp -baseline BENCH_baseline.json -threshold 0.15
//
// The snapshot keeps, per benchmark, the minimum ns/op and allocs/op across
// the -count repetitions: minima are the low-noise statistic for "how fast
// can this go on this machine", and a regression must push even the best
// repetition past the threshold to fail the gate, so one noisy run cannot.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's snapshot: best-of-count ns/op and allocs/op plus
// how many repetitions fed the minimum.
type Entry struct {
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp float64 `json:"allocs_op"`
	Samples     int     `json:"samples"`
}

// Baseline is the committed BENCH_baseline.json shape.
type Baseline struct {
	// Commit records the git SHA the snapshot was taken at (informational).
	Commit     string           `json:"commit,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line. The trailing -N
// (GOMAXPROCS) is stripped from the name so snapshots from machines with
// different core counts address the same benchmark.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parse reduces a `go test -bench` stream to per-benchmark minima.
func parse(r io.Reader) (map[string]Entry, error) {
	out := make(map[string]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		ns, allocs := math.NaN(), math.NaN()
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcmp: bad value %q in %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				ns = v
			case "allocs/op":
				allocs = v
			}
		}
		if math.IsNaN(ns) {
			return nil, fmt.Errorf("benchcmp: no ns/op in %q", sc.Text())
		}
		e, seen := out[name]
		if !seen {
			e = Entry{NsPerOp: ns, AllocsPerOp: allocs}
		} else {
			e.NsPerOp = math.Min(e.NsPerOp, ns)
			if !math.IsNaN(allocs) {
				e.AllocsPerOp = math.Min(e.AllocsPerOp, allocs)
			}
		}
		e.Samples++
		out[name] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchcmp: no benchmark lines in input")
	}
	return out, nil
}

// compare reports the regressions of cur against base under threshold,
// restricted to names matching gate. It returns a human-readable report and
// the list of failures.
func compare(base, cur map[string]Entry, gate *regexp.Regexp, threshold float64) (string, []string) {
	var b strings.Builder
	var failures []string
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !gate.MatchString(name) {
			continue
		}
		want := base[name]
		got, ok := cur[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current run", name))
			continue
		}
		check := func(metric string, baseV, curV float64) {
			if math.IsNaN(baseV) || math.IsNaN(curV) || baseV == 0 {
				return
			}
			ratio := curV / baseV
			status := "ok"
			if ratio > 1+threshold {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %s %.4g -> %.4g (%+.1f%%, limit %+.0f%%)",
					name, metric, baseV, curV, 100*(ratio-1), 100*threshold))
			}
			fmt.Fprintf(&b, "%-60s %-10s %12.4g %12.4g %+7.1f%%  %s\n",
				name, metric, baseV, curV, 100*(ratio-1), status)
		}
		check("ns/op", want.NsPerOp, got.NsPerOp)
		check("allocs/op", want.AllocsPerOp, got.AllocsPerOp)
	}
	return b.String(), failures
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	snapshot := fs.String("snapshot", "", "write the parsed benchmarks as a JSON baseline to this file")
	baselinePath := fs.String("baseline", "", "compare the input against this JSON baseline")
	threshold := fs.Float64("threshold", 0.15, "fail when ns/op or allocs/op exceeds baseline by more than this fraction")
	gateExpr := fs.String("gate", "Headline|TableII_Workloads|FullFrame|PolicySimulate|TraceparentInjectExtract|TracePropagationDisabled", "regexp selecting the gated benchmarks")
	commit := fs.String("commit", "", "git SHA to record in the snapshot")
	input := fs.String("in", "", "read `go test -bench` output from this file instead of stdin")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*snapshot == "") == (*baselinePath == "") {
		fmt.Fprintln(stderr, "benchcmp: exactly one of -snapshot or -baseline is required")
		return 2
	}
	if *threshold <= 0 {
		fmt.Fprintln(stderr, "benchcmp: -threshold must be positive")
		return 2
	}
	gate, err := regexp.Compile(*gateExpr)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp: bad -gate:", err)
		return 2
	}
	in := stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(stderr, "benchcmp:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	cur, err := parse(in)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *snapshot != "" {
		data, err := json.MarshalIndent(Baseline{Commit: *commit, Benchmarks: cur}, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchcmp:", err)
			return 2
		}
		if err := os.WriteFile(*snapshot, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchcmp:", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchcmp: wrote %d benchmarks to %s\n", len(cur), *snapshot)
		return 0
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "benchcmp: parsing %s: %v\n", *baselinePath, err)
		return 2
	}
	report, failures := compare(base.Benchmarks, cur, gate, *threshold)
	fmt.Fprint(stdout, report)
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "benchcmp: %d regression(s) beyond %.0f%%:\n", len(failures), 100**threshold)
		for _, f := range failures {
			fmt.Fprintln(stderr, "  "+f)
		}
		return 1
	}
	fmt.Fprintln(stdout, "benchcmp: no regressions")
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }
