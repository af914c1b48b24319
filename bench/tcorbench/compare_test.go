package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.15}
	higher := metricSpec{Name: "hits_per_s", Better: "higher", Bound: 0.15}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		m          metricSpec
		base, cand []float64
		want       string
	}{
		{"faster everywhere", lower, base, scale(base, 0.8), verdictImproved},
		{"unchanged", lower, base, base, verdictNoWorse},
		{"slower within the bound", lower, base, scale(base, 1.1), verdictNoWorse},
		{"slower beyond the bound", lower, base, scale(base, 1.3), verdictWorse},
		{"higher is better", higher, base, scale(base, 1.25), verdictImproved},
		{"throughput lost", higher, base, scale(base, 0.7), verdictWorse},
		{"spread wider than the bound", lower,
			[]float64{60, 140, 70, 130, 80, 120, 100, 100}, []float64{100, 100, 100, 100, 100, 100, 100, 100}, verdictUnresolved},
		// Better in every run clears "unresolved", but a gain still needs
		// a median shift beyond the base's spread (0.55 here).
		{"noisy base, better in every run", lower,
			[]float64{60, 140, 70, 130, 80, 120, 100, 100}, []float64{50, 50, 50, 50, 50, 50, 50, 55}, verdictNoWorse},
		{"noisy base, shift beyond its spread", lower,
			[]float64{60, 140, 70, 130, 80, 120, 100, 100}, []float64{40, 40, 40, 40, 40, 40, 40, 45}, verdictImproved},
	} {
		if got := judge(tc.m, tc.base, tc.cand); got.verdict != tc.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", tc.name, got.verdict, tc.want, got)
		}
	}
}

func writeResults(t *testing.T, dir string, m Machine, values ...float64) {
	t.Helper()
	for i, v := range values {
		r := resultFile{
			Workload: "frame-raster", Seconds: 15, Machine: m, Correct: true, Attempted: 1,
			Started: time.Unix(int64(i), 0),
			Metrics: map[string]metricValue{"op_ms_p50": {Value: v, Unit: "ms"}},
		}
		if _, err := r.write(dir); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	m := Machine{CPUModel: "test cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.x"}
	base, cand, other := t.TempDir(), t.TempDir(), t.TempDir()
	writeResults(t, base, m, 100, 101, 99, 100, 100)
	writeResults(t, cand, m, 80, 81, 79, 80, 80)
	bench := filepath.Join("..", "..", "BENCHMARK.json")

	var out, errOut bytes.Buffer
	if code := runCompare([]string{"--bench", bench, base, cand}, &out, &errOut); code != 0 {
		t.Fatalf("compare exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "op_ms_p50") || !strings.Contains(out.String(), verdictImproved) {
		t.Errorf("compare output lacks the improved op_ms_p50 row:\n%s", out.String())
	}

	m2 := m
	m2.CPUModel = "another cpu"
	writeResults(t, other, m2, 80, 81, 79)
	errOut.Reset()
	if code := runCompare([]string{"--bench", bench, base, other}, &out, &errOut); code == 0 {
		t.Error("compare accepted results from two different machines")
	}
	if !strings.Contains(errOut.String(), "different machines") {
		t.Errorf("refusal does not say why: %q", errOut.String())
	}
	if _, err := os.Stat(bench); err != nil {
		t.Fatal(err)
	}
}
