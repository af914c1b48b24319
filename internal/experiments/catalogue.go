package experiments

import "fmt"

// The catalogue names every artifact cmd/paperfig prints: the paper's
// tables and figures, its headline, and the studies beyond the paper. Each
// entry says how the artifact is computed and rendered and, for the
// figures RESULTS.md reports, what the paper measured. paperfig's
// dispatch, WriteReport and the determinism tests all read it; a new figure
// or study is one more entry here.

// An Artifact is one entry of the catalogue.
type Artifact struct {
	// Mode is the paperfig flag that selects the artifact and Num the
	// figure or table number the flag takes (0 when it takes none).
	Mode string
	Num  int
	// Usage is the help text of a study's flag. Bench is set when the flag
	// names the benchmark the study runs on.
	Usage string
	Bench bool
	// Tables computes the artifact and renders its tables in print order.
	// alias is a per-benchmark study's benchmark.
	Tables func(r *Runner, alias string) ([]*Table, error)
	// Plot, set for Figs. 1, 11 and 13, renders the terminal chart that
	// paperfig -plot prints instead of the table.
	Plot func(r *Runner) (string, error)
	// Row labels the figure's row in RESULTS.md's Figures table, Paper is
	// the value the paper reports and Summary renders this run's cell.
	// Figures without a row leave all three empty.
	Row, Paper string
	Summary    func(r *Runner) (string, error)
}

// Paper lists the paper's artifacts in paper order: what paperfig -all
// prints after prewarming the six-configuration grid.
var Paper = []Artifact{
	{Mode: "table", Num: 1, Tables: func(*Runner, string) ([]*Table, error) { return one(TableI(), nil) }},
	{Mode: "table", Num: 2, Tables: func(r *Runner, _ string) ([]*Table, error) { return one(r.TableII()) }},
	policyFigure(1, (*Runner).Fig1),
	{Mode: "fig", Num: 9, Tables: func(*Runner, string) ([]*Table, error) { return one(Fig910()) }},
	policyFigure(11, (*Runner).Fig11),
	{Mode: "fig", Num: 12, Tables: fig12Tables},
	policyFigure(13, (*Runner).Fig13),
	reported(14, (*Runner).Fig14, "Fig. 14 PB→L2 (64 KiB)", "−33.5%"),
	reported(15, (*Runner).Fig15, "Fig. 15 PB→L2 (128 KiB)", "−37.1%"),
	reported(16, (*Runner).Fig16, "Fig. 16 PB→memory (64 KiB)", "−93.0%"),
	reported(17, (*Runner).Fig17, "Fig. 17 PB→memory (128 KiB)", "−94.1%"),
	reported(18, (*Runner).Fig18, "Fig. 18 memory total (64 KiB)", "−13.9%"),
	reported(19, (*Runner).Fig19, "Fig. 19 memory total (128 KiB)", "−13.3%"),
	reported(20, (*Runner).Fig20, "Fig. 20 hierarchy energy (64 KiB)", "−14.1% / −8.7%"),
	reported(21, (*Runner).Fig21, "Fig. 21 hierarchy energy (128 KiB)", "−13.6% / −9.3%"),
	reported(22, (*Runner).Fig22, "Fig. 22 total GPU energy", "−5.6% / −5.3%"),
	reported(23, (*Runner).Fig23, "Fig. 23 tiling throughput (64 KiB)", "4.7x"),
	reported(24, (*Runner).Fig24, "Fig. 24 tiling throughput (128 KiB)", "5.0x"),
	{Mode: "headline", Tables: figure((*Runner).Headline)},
}

// headlineMetrics are the paper's abstract-level claims, in the order the
// Headline table and RESULTS.md's headline list them: the table's label,
// the report's, the paper's value and this run's cell.
var headlineMetrics = []struct {
	label, bullet, paper string
	cell                 func(Headline) string
}{
	{"Memory hierarchy energy decrease", "memory hierarchy energy decrease", "13.8%",
		func(h Headline) string { return pct(h.MemHierarchyDecrease) }},
	{"Total GPU energy decrease", "total GPU energy decrease", "5.5%",
		func(h Headline) string { return pct(h.GPUEnergyDecrease) }},
	{"FPS increase", "FPS increase", "3.7%",
		func(h Headline) string { return pct(h.FPSIncrease) }},
	{"Tiling Engine speedup", "tiling engine speedup", "~5x",
		func(h Headline) string { return fmt.Sprintf("%.1fx", h.TilingSpeedup) }},
}

// Studies are the studies beyond the paper, each selected by its own
// paperfig flag, in the order a mode conflict names them.
var Studies = []Artifact{
	{Mode: "ablation", Bench: true, Usage: "run the design-choice ablation on a benchmark alias (e.g. CCS)",
		Tables: func(r *Runner, alias string) ([]*Table, error) { return rendered(r.Ablation(alias, 64)) }},
	{Mode: "renderers", Bench: true, Usage: "run the parallel-renderer scaling study on a benchmark alias",
		Tables: func(r *Runner, alias string) ([]*Table, error) { return rendered(r.ParallelRenderers(alias, 64)) }},
	{Mode: "related", Usage: "run the related-work policy comparison (extended Fig. 13)",
		Tables: func(r *Runner, _ string) ([]*Table, error) { return one(r.RelatedWork(48)) }},
	{Mode: "imr", Bench: true, Usage: "compare TBR against immediate-mode rendering on a benchmark alias",
		Tables: func(r *Runner, alias string) ([]*Table, error) { return one(r.TBRvsIMR(alias)) }},
	{Mode: "sweep", Bench: true, Usage: "run the Tile Cache size sweep on a benchmark alias",
		Tables: func(r *Runner, alias string) ([]*Table, error) {
			t, _, err := r.SizeSweep(alias)
			return one(t, err)
		}},
	{Mode: "falseoverlap", Bench: true, Usage: "compare exact vs bounding-box binning on a benchmark alias",
		Tables: func(r *Runner, alias string) ([]*Table, error) { return one(r.FalseOverlap(alias)) }},
	{Mode: "tilesize", Bench: true, Usage: "run the tile-size sensitivity study on a benchmark alias",
		Tables: func(r *Runner, alias string) ([]*Table, error) {
			t, _, err := r.TileSizeSweep(alias)
			return one(t, err)
		}},
	{Mode: "reuse", Bench: true, Usage: "print the reuse-interval profile of a benchmark alias",
		Tables: func(r *Runner, alias string) ([]*Table, error) { return one(r.ReuseProfile(alias)) }},
}

// Find returns the artifact that paperfig -<mode> <num> prints. Figs. 9
// and 10 are one example.
func Find(mode string, num int) (Artifact, error) {
	if mode == "fig" && num == 10 {
		num = 9
	}
	for _, list := range [][]Artifact{Paper, Studies} {
		for _, a := range list {
			if a.Mode == mode && a.Num == num {
				return a, nil
			}
		}
	}
	noun := mode
	if mode == "fig" {
		noun = "figure"
	}
	return Artifact{}, fmt.Errorf("unknown %s %d", noun, num)
}

// policyFigure is the entry of a policy figure that -plot charts.
func policyFigure(num int, compute func(*Runner) (*PolicyFigure, error)) Artifact {
	return Artifact{Mode: "fig", Num: num, Tables: figure(compute),
		Plot: func(r *Runner) (string, error) {
			f, err := compute(r)
			if err != nil {
				return "", err
			}
			return f.AsciiPlot(70, 18), nil
		}}
}

// reported is the entry of a figure RESULTS.md reports.
func reported[F interface {
	Table() *Table
	Summary() string
}](num int, compute func(*Runner) (F, error), row, paper string) Artifact {
	return Artifact{Mode: "fig", Num: num, Tables: figure(compute), Row: row, Paper: paper,
		Summary: func(r *Runner) (string, error) {
			f, err := compute(r)
			if err != nil {
				return "", err
			}
			return f.Summary(), nil
		}}
}

// fig12Tables renders Fig. 12 as one table per policy.
func fig12Tables(r *Runner, _ string) ([]*Table, error) {
	figs, err := r.Fig12()
	if err != nil {
		return nil, err
	}
	var out []*Table
	for _, pol := range []string{"LRU", "OPT"} {
		t := figs[pol].Table()
		t.Title = fmt.Sprintf("Figure 12 (%s): miss ratio vs size and associativity", pol)
		out = append(out, t)
	}
	return out, nil
}

// figure adapts a figure method to Artifact.Tables.
func figure[F interface{ Table() *Table }](compute func(*Runner) (F, error)) func(*Runner, string) ([]*Table, error) {
	return func(r *Runner, _ string) ([]*Table, error) { return rendered(compute(r)) }
}

// rendered is a computed figure's table.
func rendered[F interface{ Table() *Table }](f F, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{f.Table()}, nil
}

// one is a computed table.
func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}
