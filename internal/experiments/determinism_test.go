package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// renderSystemFigures renders, in catalogue order, every artifact computed
// from the six-configuration grid: the figures RESULTS.md reports (Figs.
// 14-24) and the headline.
func renderSystemFigures(t *testing.T, r *Runner) string {
	t.Helper()
	var b strings.Builder
	n := 0
	for _, a := range Paper {
		if a.Summary == nil && a.Mode != "headline" {
			continue
		}
		n++
		tables, err := a.Tables(r, "")
		if err != nil {
			t.Fatalf("%s %d: %v", a.Mode, a.Num, err)
		}
		for _, tab := range tables {
			fmt.Fprintf(&b, "%s\n", tab)
		}
	}
	if n != 12 {
		t.Fatalf("rendered %d grid artifacts, want 12 (Figs. 14-24 and the headline)", n)
	}
	return b.String()
}

// TestGoldenParallelDeterminism is the reproducibility contract of the sweep
// engine: the full Figs. 14-24 pass (plus the headline aggregate) must be
// byte-identical at -parallel 1, 4 and 8. Each parallelism level uses a
// fresh Runner so nothing is served from a shared memo.
func TestGoldenParallelDeterminism(t *testing.T) {
	render := func(par int) string {
		r := fastRunner("CCS", "GTr")
		r.Parallel = par
		return renderSystemFigures(t, r)
	}
	want := render(1)
	if want == "" {
		t.Fatal("empty reference rendering")
	}
	for _, par := range []int{4, 8} {
		got := render(par)
		if got != want {
			t.Errorf("-parallel %d output differs from -parallel 1:\n%s", par, firstDiff(want, got))
		}
	}
}

// TestGoldenPrewarmDeterminism checks that a prewarmed parallel pass and a
// cold sequential pass render identical figures: the memo contents must not
// depend on which goroutine computed them.
func TestGoldenPrewarmDeterminism(t *testing.T) {
	cold := fastRunner("GTr")
	want := renderSystemFigures(t, cold)

	warm := fastRunner("GTr")
	warm.Parallel = 8
	if err := warm.Prewarm(8); err != nil {
		t.Fatal(err)
	}
	if got := renderSystemFigures(t, warm); got != want {
		t.Errorf("prewarmed rendering differs from cold sequential:\n%s", firstDiff(want, got))
	}
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(wl), len(gl))
}
