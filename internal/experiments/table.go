// Package experiments regenerates every table and figure of the paper's
// evaluation (§I Fig. 1, §V Figs. 11–24, Tables I–II) from the simulator.
// Each experiment returns a Table — the same rows/series the paper plots —
// so the cmd/paperfig binary, the benchmark harness and the tests all share
// one implementation.
package experiments

import (
	"encoding/csv"
	"fmt"
	"strings"
)

// Table is a printable experiment result: a title, a header and rows of
// cells. Numeric series used by tests are exposed by the individual
// experiment result types; Table is the presentation layer.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 CSV (header row first); the title and
// note travel as comment lines.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "# %s\n", t.Note)
	}
	w := csv.NewWriter(&b)
	_ = w.Write(t.Header)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// pct formats a ratio as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
