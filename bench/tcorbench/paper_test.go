package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

const fixedReport = `# TCOR reproduction results

Generated 2026-01-01 00:00 UTC by ` + "`paperfig -report`" + `. All numbers are deterministic.

## Headline (paper: 10.0% / 5.0% / 4.0% / ~5x)

- memory hierarchy energy decrease: **11.0%**
- total GPU energy decrease: **5.0%**
- FPS increase: **3.0%**
- tiling engine speedup: **4.0x**

## Figures

| Figure | Paper | This run |
|---|---|---|
| Fig. 14 PB→L2 (64 KiB) | −20.0% | −10.0% average |
| Fig. 22 total GPU energy | −5.0% / −4.0% | −5.0% (64 KiB), −5.0% (128 KiB) |

## Workloads
`

func TestPaperErrorFixedTable(t *testing.T) {
	// Relative errors: headline 0.1, 0, 0.25, 0.2; Fig. 14 0.5; Fig. 22 0, 0.25.
	pct, terms, err := paperError(fixedReport)
	if err != nil {
		t.Fatal(err)
	}
	if terms != 7 {
		t.Errorf("terms = %d, want 7", terms)
	}
	if want := 100 * 1.3 / 7; math.Abs(pct-want) > 1e-9 {
		t.Errorf("paper_err_pct = %v, want %v", pct, want)
	}
}

func TestPaperErrorRejectsUnpairedValues(t *testing.T) {
	bad := strings.Replace(fixedReport, "−5.0% (64 KiB), −5.0% (128 KiB)", "−5.0% (64 KiB)", 1)
	if _, _, err := paperError(bad); err == nil {
		t.Error("a row with fewer values than the paper's was accepted")
	}
}

// TestPaperErrorOnCommittedResults parses the committed report: four
// headline numbers and fourteen values across the Fig. 14-24 rows.
func TestPaperErrorOnCommittedResults(t *testing.T) {
	data, err := os.ReadFile("../../RESULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	pct, terms, err := paperError(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if terms != 18 || pct <= 0 || pct >= 100 {
		t.Errorf("RESULTS.md: %d terms, paper_err_pct %v", terms, pct)
	}
}

func TestSameReportIgnoresGeneratedLine(t *testing.T) {
	other := strings.Replace(fixedReport, "Generated 2026-01-01 00:00 UTC", "Generated 2027-02-02 12:34 UTC", 1)
	if err := sameReport([]byte(other), []byte(fixedReport)); err != nil {
		t.Errorf("reports differing only in the Generated line: %v", err)
	}
	changed := strings.Replace(fixedReport, "**11.0%**", "**11.1%**", 1)
	if err := sameReport([]byte(changed), []byte(fixedReport)); err == nil {
		t.Error("a changed headline number went unnoticed")
	}
}
