package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// TestGoldenReportMatchesResults regenerates the results report the way
// `paperfig -report` does (Prewarm, then WriteReport) and requires it to
// match the committed RESULTS.md byte for byte, bar the Generated line. Any
// drift in the calibration (workload statistics, cache mechanics, the
// energy model) fails here and arrives as a reviewed RESULTS.md diff.
// Runs the whole ten-benchmark suite; skipped under -short.
func TestGoldenReportMatchesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden check skipped in -short mode")
	}
	want, err := os.ReadFile("../../RESULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	if err := r.Prewarm(0); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := r.WriteReport(&got, time.Now()); err != nil {
		t.Fatal(err)
	}
	if g, w := withoutGenerated(got.String()), withoutGenerated(string(want)); g != w {
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("report drifts from RESULTS.md at line %d (Generated line removed):\n got: %s\nwant: %s\n(regenerate with `paperfig -report RESULTS.md` if the change is intended)",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report has %d lines, RESULTS.md %d (Generated line removed)", len(gl), len(wl))
	}

	// RESULTS.md carries only the Fig. 16 average; the per-benchmark count
	// of full PB->memory elimination is pinned here (paper: 7 of 10).
	f16, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	fullElim := 0
	for _, row := range f16.Rows {
		if row.TCORReads+row.TCORWrites == 0 {
			fullElim++
		}
	}
	if fullElim < 6 {
		t.Errorf("only %d/10 benchmarks fully eliminate PB memory traffic (paper: 7)", fullElim)
	}
}

// withoutGenerated drops the report's "Generated <time> ..." line, the only
// line that differs between two runs.
func withoutGenerated(report string) string {
	lines := strings.Split(report, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "Generated ") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}
