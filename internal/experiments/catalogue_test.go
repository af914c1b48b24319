package experiments

import (
	"strings"
	"testing"
)

// TestCatalogueFind pins what paperfig -fig, -table, -headline and the
// study flags select: every paper figure number (Fig. 10 is Fig. 9's
// example), both tables, the headline and each study, and the errors for
// numbers the paper does not have.
func TestCatalogueFind(t *testing.T) {
	for _, n := range []int{1, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24} {
		a, err := Find("fig", n)
		if err != nil {
			t.Fatalf("fig %d: %v", n, err)
		}
		if a.Num != n && !(n == 10 && a.Num == 9) {
			t.Errorf("fig %d selects entry %d", n, a.Num)
		}
	}
	for _, sel := range []struct {
		mode string
		num  int
	}{{"table", 1}, {"table", 2}, {"headline", 0}} {
		if _, err := Find(sel.mode, sel.num); err != nil {
			t.Errorf("%s %d: %v", sel.mode, sel.num, err)
		}
	}
	for _, s := range Studies {
		if a, err := Find(s.Mode, 0); err != nil || a.Usage != s.Usage {
			t.Errorf("study %s: %v", s.Mode, err)
		}
	}
	for _, bad := range []struct {
		mode string
		num  int
		want string
	}{{"fig", 2, "unknown figure 2"}, {"fig", 99, "unknown figure 99"}, {"table", 3, "unknown table 3"}} {
		if _, err := Find(bad.mode, bad.num); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s %d: error %v, want %q", bad.mode, bad.num, err, bad.want)
		}
	}
}
