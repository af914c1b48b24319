package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteReport regenerates a complete markdown results report — the
// machine-written companion to EXPERIMENTS.md — with fresh numbers from
// this runner: the headline, the summary cell of every figure with a
// catalogue row, Table II and the related-work policies.
// Intended for `paperfig -report out.md`.
func (r *Runner) WriteReport(w io.Writer, generatedAt time.Time) error {
	fmt.Fprintf(w, "# TCOR reproduction results\n\n")
	fmt.Fprintf(w, "Generated %s by `paperfig -report`. All numbers are deterministic.\n\n",
		generatedAt.Format("2006-01-02 15:04 MST"))

	h, err := r.Headline()
	if err != nil {
		return err
	}
	paper := make([]string, len(headlineMetrics))
	for i, m := range headlineMetrics {
		paper[i] = m.paper
	}
	fmt.Fprintf(w, "## Headline (paper: %s)\n\n", strings.Join(paper, " / "))
	for _, m := range headlineMetrics {
		fmt.Fprintf(w, "- %s: **%s**\n", m.bullet, m.cell(h))
	}

	fmt.Fprintf(w, "\n## Figures\n\n| Figure | Paper | This run |\n|---|---|---|\n")
	for _, a := range Paper {
		if a.Summary == nil {
			continue
		}
		val, err := a.Summary(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %s | %s |\n", a.Row, a.Paper, val)
	}
	fmt.Fprintln(w)

	t2, err := r.TableII()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Workloads\n\n```\n%s```\n\n", t2.String())

	rel, err := r.RelatedWork(48)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Related-work policies on the PB stream\n\n```\n%s```\n", rel.String())
	return nil
}
