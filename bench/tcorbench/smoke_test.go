package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"tcor/internal/stats"
)

const benchJSON = "../../BENCHMARK.json"

// TestWorkloadsSmoke runs every workload for about a second, untraced and
// traced, and checks that the outputs verify and that the metrics match
// BENCHMARK.json: every end-to-end metric on every workload, and every
// per-layer metric on at least one.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program drives %d", len(spec.Workloads), len(workloads))
	}
	perLayer, endToEnd := map[string]bool{}, map[string]bool{}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = true
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		drive, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("no function runs workload %s", w.Name)
		}
		for _, tracer := range []*stats.Tracer{nil, stats.NewTracer(1 << 16)} {
			rc := &runContext{seed: 2, window: time.Second, root: "../..", tracer: tracer, calib: &calibrator{}}
			o, err := drive(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, rc.traced(), err)
			}
			if o.attempted < 1 || o.failed != 0 {
				t.Fatalf("%s traced=%v: %d attempted, %d failed: %v", w.Name, rc.traced(), o.attempted, o.failed, o.failures)
			}
			if len(o.setups) == 0 {
				t.Errorf("%s: no set-up recorded", w.Name)
			}
			if !rc.traced() {
				for _, m := range spec.EndToEnd {
					if m.Name == "setup_s" || m.Name == "peak_rss_mb" {
						continue
					}
					if o.metrics[m.Name] <= 0 {
						t.Errorf("%s: %s = %v, want a positive value", w.Name, m.Name, o.metrics[m.Name])
					}
				}
				continue
			}
			for k := range o.metrics {
				if !perLayer[k] && !endToEnd[k] {
					t.Errorf("%s: per-layer metric %s is not in BENCHMARK.json", w.Name, k)
				}
				seen[k] = true
			}
		}
	}
	var missing []string
	for k := range perLayer {
		if !seen[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("no workload measures %v", missing)
	}
}

// TestRunOneOutput checks the command's contract on one short run: the
// last line of standard output is the result object holding exactly the
// end-to-end metrics with their units.
func TestRunOneOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := runOne([]string{"--workload", "frame-pb", "--seed", "1", "--seconds", "1", "--trace", "0",
		"--bench", benchJSON, "--out", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	spec, err := loadSpec(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("result %+v", last)
	}
	for _, m := range spec.EndToEnd {
		if v, ok := last.Metrics[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", m.Name, v, m.Unit)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "frame-pb-seed1-trace0-*.json"))
	if len(files) != 1 {
		t.Errorf("result files %v, want one", files)
	}
}

func TestRunOneRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "frame-pb", "--trace", "2"},
		{"--workload", "frame-pb", "--seconds", "0"},
		{"--workload", "frame-pb", "--bench", "missing.json"},
	} {
		var out, errOut bytes.Buffer
		if code := runOne(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
