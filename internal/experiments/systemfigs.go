package experiments

import (
	"fmt"
	"strconv"

	"tcor/internal/gpu"
	"tcor/internal/mem"
	"tcor/internal/workload"
)

// tileCacheBytes maps the two experiment sizes of §V-B.
func tileCacheBytes(sizeKB int) int { return sizeKB * 1024 }

// gridConfigs are the three full-system configurations behind Figs. 14-24,
// each run at 64 and 128 KiB. A cell's memo name is its configuration's
// prefix followed by the size: base64, tcor128, nol2-64 and so on.
var gridConfigs = [...]struct {
	prefix string
	config func(tileCacheBytes int) gpu.Config
}{{"base", gpu.Baseline}, {"tcor", gpu.TCOR}, {"nol2-", gpu.TCORNoL2}}

// Indices into gridConfigs.
const (
	gridBaseline = iota
	gridTCOR
	gridNoL2
)

// gridCell is one benchmark's cell of the grid.
func gridCell(alias string, config, sizeKB int) runCell {
	c := gridConfigs[config]
	return runCell{alias, c.prefix + strconv.Itoa(sizeKB), c.config(tileCacheBytes(sizeKB))}
}

// grid returns the memoized result of one grid cell.
func (r *Runner) grid(alias string, config, sizeKB int) (*gpu.Result, error) {
	c := gridCell(alias, config, sizeKB)
	return r.Run(c.alias, c.name, c.cfg)
}

// suiteMean averages per-benchmark values, one mean per getter, and is 0
// for an empty suite. Each mean adds its values in suite order: float
// addition is not associative, so a fixed order keeps the means
// bit-identical at every parallelism level.
func suiteMean[T any](rows []T, get ...func(T) float64) []float64 {
	means := make([]float64, len(get))
	if len(rows) == 0 {
		return means
	}
	for i, g := range get {
		for _, row := range rows {
			means[i] += g(row)
		}
		means[i] /= float64(len(rows))
	}
	return means
}

// TrafficRow is one benchmark's bar of a normalized traffic figure: reads
// and writes for baseline and TCOR, both normalized to the baseline total.
type TrafficRow struct {
	Alias                 string
	BaseReads, BaseWrites int64
	TCORReads, TCORWrites int64
	Decrease              float64 // 1 - (TCOR total / baseline total)
}

// TrafficFigure is the result of Figs. 14-19.
type TrafficFigure struct {
	Fig     int
	SizeKB  int
	Metric  string
	Rows    []TrafficRow
	Average float64 // average of per-benchmark decreases
}

// Table renders the figure.
func (f *TrafficFigure) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure %d: %s, normalized to baseline (%d KiB Tile Cache)",
			f.Fig, f.Metric, f.SizeKB),
		Header: []string{"Benchmark", "BaseRd", "BaseWr", "TCORRd", "TCORWr", "Decrease"},
	}
	for _, row := range f.Rows {
		base := float64(row.BaseReads + row.BaseWrites)
		norm := func(v int64) string {
			if base == 0 {
				return "-"
			}
			return f3(float64(v) / base)
		}
		t.AddRow(row.Alias, norm(row.BaseReads), norm(row.BaseWrites),
			norm(row.TCORReads), norm(row.TCORWrites), pct(row.Decrease))
	}
	t.AddRow("average", "", "", "", "", pct(f.Average))
	return t
}

// Summary is the figure's cell in RESULTS.md.
func (f *TrafficFigure) Summary() string { return fmt.Sprintf("−%.1f%% average", 100*f.Average) }

// trafficFigure builds Figs. 14-19 from a per-result counter extractor. The
// per-benchmark rows come back from the sweep pool in suite order, so the
// aggregation below is identical at every parallelism level.
func (r *Runner) trafficFigure(fig, sizeKB int, metric string,
	get func(*gpu.Result) mem.RegionCounts) (*TrafficFigure, error) {
	rows, err := forSuite(r, func(spec workload.Spec) (TrafficRow, error) {
		base, err := r.grid(spec.Alias, gridBaseline, sizeKB)
		if err != nil {
			return TrafficRow{}, err
		}
		tc, err := r.grid(spec.Alias, gridTCOR, sizeKB)
		if err != nil {
			return TrafficRow{}, err
		}
		b, tcc := get(base), get(tc)
		row := TrafficRow{
			Alias:     spec.Alias,
			BaseReads: b.Reads, BaseWrites: b.Writes,
			TCORReads: tcc.Reads, TCORWrites: tcc.Writes,
		}
		if tot := b.Reads + b.Writes; tot > 0 {
			row.Decrease = 1 - float64(tcc.Reads+tcc.Writes)/float64(tot)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	avg := suiteMean(rows, func(row TrafficRow) float64 { return row.Decrease })
	return &TrafficFigure{Fig: fig, SizeKB: sizeKB, Metric: metric, Rows: rows, Average: avg[0]}, nil
}

// Fig14 and Fig15: Parameter Buffer accesses to the L2, for the 64 KiB and
// 128 KiB Tile Caches.
func (r *Runner) Fig14() (*TrafficFigure, error) { return r.figPBL2(14, 64) }

// Fig15 is the 128 KiB variant of Fig14.
func (r *Runner) Fig15() (*TrafficFigure, error) { return r.figPBL2(15, 128) }

func (r *Runner) figPBL2(fig, sizeKB int) (*TrafficFigure, error) {
	return r.trafficFigure(fig, sizeKB, "PB accesses to L2",
		func(res *gpu.Result) mem.RegionCounts { return res.L2In.PB() })
}

// Fig16 and Fig17: Parameter Buffer accesses to Main Memory.
func (r *Runner) Fig16() (*TrafficFigure, error) { return r.figPBMem(16, 64) }

// Fig17 is the 128 KiB variant of Fig16.
func (r *Runner) Fig17() (*TrafficFigure, error) { return r.figPBMem(17, 128) }

func (r *Runner) figPBMem(fig, sizeKB int) (*TrafficFigure, error) {
	return r.trafficFigure(fig, sizeKB, "PB accesses to Main Memory",
		func(res *gpu.Result) mem.RegionCounts { return res.DRAMIn.PB() })
}

// Fig18 and Fig19: total Main Memory accesses (all regions, including the
// Color Buffer flush).
func (r *Runner) Fig18() (*TrafficFigure, error) { return r.figMemTotal(18, 64) }

// Fig19 is the 128 KiB variant of Fig18.
func (r *Runner) Fig19() (*TrafficFigure, error) { return r.figMemTotal(19, 128) }

func (r *Runner) figMemTotal(fig, sizeKB int) (*TrafficFigure, error) {
	return r.trafficFigure(fig, sizeKB, "total Main Memory accesses",
		func(res *gpu.Result) mem.RegionCounts {
			return mem.RegionCounts{Reads: res.DRAM.Reads, Writes: res.DRAM.Writes}
		})
}

// EnergyRow is one benchmark's bars of Figs. 20/21.
type EnergyRow struct {
	Alias        string
	BasePJ       float64
	NoL2PJ       float64
	TCORPJ       float64
	DecreaseNoL2 float64 // 1 - NoL2/Base
	DecreaseTCOR float64 // 1 - TCOR/Base
}

// EnergyFigure is the result of Figs. 20/21.
type EnergyFigure struct {
	Fig     int
	SizeKB  int
	Rows    []EnergyRow
	AvgNoL2 float64
	AvgTCOR float64
}

// Table renders the figure.
func (f *EnergyFigure) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure %d: Memory hierarchy energy, normalized to baseline (%d KiB Tile Cache)",
			f.Fig, f.SizeKB),
		Header: []string{"Benchmark", "Baseline", "TCOR-noL2", "TCOR", "Dec(noL2)", "Dec(TCOR)"},
	}
	for _, row := range f.Rows {
		t.AddRow(row.Alias, "1.000", f3(row.NoL2PJ/row.BasePJ), f3(row.TCORPJ/row.BasePJ),
			pct(row.DecreaseNoL2), pct(row.DecreaseTCOR))
	}
	t.AddRow("average", "", "", "", pct(f.AvgNoL2), pct(f.AvgTCOR))
	return t
}

// Summary is the figure's cell in RESULTS.md.
func (f *EnergyFigure) Summary() string {
	return fmt.Sprintf("−%.1f%% TCOR, −%.1f%% without L2 enh.", 100*f.AvgTCOR, 100*f.AvgNoL2)
}

// Fig20 and Fig21: memory-hierarchy energy for baseline, TCOR without the
// L2 enhancements, and full TCOR.
func (r *Runner) Fig20() (*EnergyFigure, error) { return r.figEnergy(20, 64) }

// Fig21 is the 128 KiB variant of Fig20.
func (r *Runner) Fig21() (*EnergyFigure, error) { return r.figEnergy(21, 128) }

func (r *Runner) figEnergy(fig, sizeKB int) (*EnergyFigure, error) {
	rows, err := forSuite(r, func(spec workload.Spec) (EnergyRow, error) {
		base, err := r.grid(spec.Alias, gridBaseline, sizeKB)
		if err != nil {
			return EnergyRow{}, err
		}
		noL2, err := r.grid(spec.Alias, gridNoL2, sizeKB)
		if err != nil {
			return EnergyRow{}, err
		}
		tc, err := r.grid(spec.Alias, gridTCOR, sizeKB)
		if err != nil {
			return EnergyRow{}, err
		}
		row := EnergyRow{
			Alias:  spec.Alias,
			BasePJ: base.MemHierarchyPJ,
			NoL2PJ: noL2.MemHierarchyPJ,
			TCORPJ: tc.MemHierarchyPJ,
		}
		row.DecreaseNoL2 = 1 - row.NoL2PJ/row.BasePJ
		row.DecreaseTCOR = 1 - row.TCORPJ/row.BasePJ
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	avg := suiteMean(rows,
		func(row EnergyRow) float64 { return row.DecreaseNoL2 },
		func(row EnergyRow) float64 { return row.DecreaseTCOR })
	return &EnergyFigure{Fig: fig, SizeKB: sizeKB, Rows: rows, AvgNoL2: avg[0], AvgTCOR: avg[1]}, nil
}

// GPUEnergyRow is one benchmark of Fig. 22.
type GPUEnergyRow struct {
	Alias       string
	Decrease64  float64
	Decrease128 float64
}

// GPUEnergyFigure is the result of Fig. 22.
type GPUEnergyFigure struct {
	Rows          []GPUEnergyRow
	Avg64, Avg128 float64
}

// Table renders the figure.
func (f *GPUEnergyFigure) Table() *Table {
	t := &Table{
		Title:  "Figure 22: Decrease in total GPU energy wrt the baseline",
		Header: []string{"Benchmark", "64KB Tile Cache", "128KB Tile Cache"},
	}
	for _, row := range f.Rows {
		t.AddRow(row.Alias, pct(row.Decrease64), pct(row.Decrease128))
	}
	t.AddRow("average", pct(f.Avg64), pct(f.Avg128))
	return t
}

// Summary is the figure's cell in RESULTS.md.
func (f *GPUEnergyFigure) Summary() string {
	return fmt.Sprintf("−%.1f%% (64 KiB), −%.1f%% (128 KiB)", 100*f.Avg64, 100*f.Avg128)
}

// Fig22 reproduces Figure 22: per-benchmark decrease in total GPU energy
// for both Tile Cache sizes.
func (r *Runner) Fig22() (*GPUEnergyFigure, error) {
	rows, err := forSuite(r, func(spec workload.Spec) (GPUEnergyRow, error) {
		row := GPUEnergyRow{Alias: spec.Alias}
		for _, sizeKB := range []int{64, 128} {
			base, err := r.grid(spec.Alias, gridBaseline, sizeKB)
			if err != nil {
				return row, err
			}
			tc, err := r.grid(spec.Alias, gridTCOR, sizeKB)
			if err != nil {
				return row, err
			}
			dec := 1 - tc.TotalPJ/base.TotalPJ
			if sizeKB == 64 {
				row.Decrease64 = dec
			} else {
				row.Decrease128 = dec
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	avg := suiteMean(rows,
		func(row GPUEnergyRow) float64 { return row.Decrease64 },
		func(row GPUEnergyRow) float64 { return row.Decrease128 })
	return &GPUEnergyFigure{Rows: rows, Avg64: avg[0], Avg128: avg[1]}, nil
}

// ThroughputRow is one benchmark of Figs. 23/24.
type ThroughputRow struct {
	Alias   string
	BasePPC float64
	TCORPPC float64
	Speedup float64
}

// ThroughputFigure is the result of Figs. 23/24.
type ThroughputFigure struct {
	Fig        int
	SizeKB     int
	Rows       []ThroughputRow
	AvgSpeedup float64
}

// Table renders the figure.
func (f *ThroughputFigure) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure %d: Primitives output per cycle by the Tile Fetcher (%d KiB Tile Cache)",
			f.Fig, f.SizeKB),
		Header: []string{"Benchmark", "Baseline PPC", "TCOR PPC", "Speedup"},
	}
	for _, row := range f.Rows {
		t.AddRow(row.Alias, f3(row.BasePPC), f3(row.TCORPPC), fmt.Sprintf("%.1fx", row.Speedup))
	}
	t.AddRow("average", "", "", fmt.Sprintf("%.1fx", f.AvgSpeedup))
	return t
}

// Summary is the figure's cell in RESULTS.md.
func (f *ThroughputFigure) Summary() string {
	return fmt.Sprintf("%.1fx average speedup", f.AvgSpeedup)
}

// Fig23 and Fig24: Tile Fetcher throughput (primitives per cycle) with an
// unbounded output queue.
func (r *Runner) Fig23() (*ThroughputFigure, error) { return r.figThroughput(23, 64) }

// Fig24 is the 128 KiB variant of Fig23.
func (r *Runner) Fig24() (*ThroughputFigure, error) { return r.figThroughput(24, 128) }

func (r *Runner) figThroughput(fig, sizeKB int) (*ThroughputFigure, error) {
	rows, err := forSuite(r, func(spec workload.Spec) (ThroughputRow, error) {
		base, err := r.grid(spec.Alias, gridBaseline, sizeKB)
		if err != nil {
			return ThroughputRow{}, err
		}
		tc, err := r.grid(spec.Alias, gridTCOR, sizeKB)
		if err != nil {
			return ThroughputRow{}, err
		}
		row := ThroughputRow{Alias: spec.Alias, BasePPC: base.PPC(), TCORPPC: tc.PPC()}
		if row.BasePPC > 0 {
			row.Speedup = row.TCORPPC / row.BasePPC
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	avg := suiteMean(rows, func(row ThroughputRow) float64 { return row.Speedup })
	return &ThroughputFigure{Fig: fig, SizeKB: sizeKB, Rows: rows, AvgSpeedup: avg[0]}, nil
}

// Headline aggregates the paper's abstract-level claims (headlineMetrics
// holds the paper's values).
type Headline struct {
	MemHierarchyDecrease float64
	GPUEnergyDecrease    float64
	FPSIncrease          float64
	TilingSpeedup        float64
}

// Table renders the headline numbers.
func (h Headline) Table() *Table {
	t := &Table{
		Title:  "Headline results (suite average, 64 KiB Tile Cache)",
		Header: []string{"Metric", "This repro", "Paper"},
	}
	for _, m := range headlineMetrics {
		t.AddRow(m.label, m.cell(h), m.paper)
	}
	return t
}

// Headline computes the abstract-level aggregate over the suite at 64 KiB.
func (r *Runner) Headline() (Headline, error) {
	const clock = 600e6
	parts, err := forSuite(r, func(spec workload.Spec) (Headline, error) {
		base, err := r.grid(spec.Alias, gridBaseline, 64)
		if err != nil {
			return Headline{}, err
		}
		tc, err := r.grid(spec.Alias, gridTCOR, 64)
		if err != nil {
			return Headline{}, err
		}
		p := Headline{
			MemHierarchyDecrease: 1 - tc.MemHierarchyPJ/base.MemHierarchyPJ,
			GPUEnergyDecrease:    1 - tc.TotalPJ/base.TotalPJ,
			FPSIncrease:          tc.FPS(clock)/base.FPS(clock) - 1,
		}
		if base.PPC() > 0 {
			p.TilingSpeedup = tc.PPC() / base.PPC()
		}
		return p, nil
	})
	if err != nil {
		return Headline{}, err
	}
	avg := suiteMean(parts,
		func(p Headline) float64 { return p.MemHierarchyDecrease },
		func(p Headline) float64 { return p.GPUEnergyDecrease },
		func(p Headline) float64 { return p.FPSIncrease },
		func(p Headline) float64 { return p.TilingSpeedup })
	return Headline{avg[0], avg[1], avg[2], avg[3]}, nil
}

// TableI renders the simulation parameters of Table I.
func TableI() *Table {
	t := &Table{
		Title:  "Table I: GPU simulation parameters",
		Header: []string{"Parameter", "Value"},
	}
	t.AddRow("Tech Specs", "600MHz, 1V, 32nm")
	t.AddRow("Screen Resolution", "1960x768")
	t.AddRow("Tile Size", "32x32")
	t.AddRow("Tile Traversal Order", "Z-order")
	t.AddRow("Main Memory Latency", "50-100 cycles")
	t.AddRow("Main Memory Size", "1GiB")
	t.AddRow("Vertex Cache", "64-bytes/line, 64KiB, 4-way, 1 cycle")
	t.AddRow("Texture Caches (4x)", "64-bytes/line, 64KiB, 4-way, 1 cycle")
	t.AddRow("Tile Cache", "64-bytes/line, 64KiB, 4-way, 1 cycle")
	t.AddRow("L2 Cache", "64-bytes/line, 1MiB, 8-way, 12 cycles")
	return t
}

// TableII renders the benchmark suite with both the published targets and
// the realized statistics of the generated scenes.
func (r *Runner) TableII() (*Table, error) {
	t := &Table{
		Title: "Table II: Evaluated benchmarks (synthetic scenes calibrated to the published statistics)",
		Header: []string{"Benchmark", "Alias", "Installs(M)", "Genre", "Type",
			"PB MiB (target)", "PB MiB (measured)", "Reuse (target)", "Reuse (measured)", "Prims", "Prims/Tile"},
	}
	rows, err := forSuite(r, func(spec workload.Spec) ([]string, error) {
		sc, err := r.Scene(spec.Alias)
		if err != nil {
			return nil, err
		}
		st := sc.Stats()
		typ := "2D"
		if spec.ThreeD {
			typ = "3D"
		}
		return []string{spec.Name, spec.Alias, fmt.Sprintf("%d", spec.Installs), spec.Genre, typ,
			fmt.Sprintf("%.2f", spec.PBFootprintMiB),
			fmt.Sprintf("%.2f", float64(st.PBFootprint)/(1024*1024)),
			fmt.Sprintf("%.2f", spec.AvgPrimReuse),
			fmt.Sprintf("%.2f", st.AvgPrimReuse),
			fmt.Sprintf("%d", st.Primitives),
			fmt.Sprintf("%.1f", st.AvgPrimsTile)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}
