package experiments

import (
	"context"
	"fmt"

	"tcor/internal/gpu"
	"tcor/internal/tiling"
)

// AblationRow is one configuration of the ablation study.
type AblationRow struct {
	Name string
	// PBL2 is Parameter Buffer accesses to the L2; PBMem to main memory.
	PBL2, PBMem int64
	// HierPJ is memory-hierarchy energy.
	HierPJ float64
	// PPC is Tile Fetcher throughput.
	PPC float64
}

// AblationResult is the full ablation over one benchmark.
type AblationResult struct {
	Benchmark string
	SizeKB    int
	Rows      []AblationRow
}

// Row returns the named row, or nil.
func (a *AblationResult) Row(name string) *AblationRow {
	for i := range a.Rows {
		if a.Rows[i].Name == name {
			return &a.Rows[i]
		}
	}
	return nil
}

// Table renders the ablation.
func (a *AblationResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Ablation study (%s, %d KiB Tile Cache): each TCOR mechanism removed in isolation",
			a.Benchmark, a.SizeKB),
		Header: []string{"Configuration", "PB->L2", "PB->Mem", "Hier. energy (mJ)", "TF PPC"},
	}
	for _, r := range a.Rows {
		t.AddRow(r.Name, fmt.Sprintf("%d", r.PBL2), fmt.Sprintf("%d", r.PBMem),
			fmt.Sprintf("%.3f", r.HierPJ/1e9), f3(r.PPC))
	}
	return t
}

// Ablation runs the design-choice studies DESIGN.md calls out on one
// benchmark: full TCOR, then TCOR with each mechanism disabled in turn
// (interleaved PB-Lists layout, XOR indexing, write bypass, L2
// enhancements), plus a scanline-traversal variant and the baseline.
func (r *Runner) Ablation(alias string, sizeKB int) (*AblationResult, error) {
	bytes := tileCacheBytes(sizeKB)
	tcorWithout := func(change func(*gpu.Config)) gpu.Config {
		c := gpu.TCOR(bytes)
		change(&c)
		return c
	}
	type variant struct {
		name string
		cfg  gpu.Config
	}
	variants := []variant{
		{"TCOR (full)", gpu.TCOR(bytes)},
		{"no interleaved layout", tcorWithout(func(c *gpu.Config) { c.InterleavedLists = false })},
		{"no XOR indexing", tcorWithout(func(c *gpu.Config) { c.XORIndex = false })},
		{"no write bypass", tcorWithout(func(c *gpu.Config) { c.WriteBypass = false })},
		{"no L2 enhancements", gpu.TCORNoL2(bytes)},
		{"scanline traversal", tcorWithout(func(c *gpu.Config) { c.Order = tiling.OrderScanline })},
		{"hilbert traversal", tcorWithout(func(c *gpu.Config) { c.Order = tiling.OrderHilbert })},
		{"baseline", gpu.Baseline(bytes)},
	}
	rows, err := SweepSlice(r.baseCtx(), r.Parallel, variants,
		func(_ context.Context, v variant) (AblationRow, error) {
			res, err := r.Run(alias, fmt.Sprintf("abl-%s-%d", v.name, sizeKB), v.cfg)
			if err != nil {
				return AblationRow{}, err
			}
			pb := res.L2In.PB()
			pbm := res.DRAMIn.PB()
			return AblationRow{
				Name:   v.name,
				PBL2:   pb.Reads + pb.Writes,
				PBMem:  pbm.Reads + pbm.Writes,
				HierPJ: res.MemHierarchyPJ,
				PPC:    res.PPC(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Benchmark: alias, SizeKB: sizeKB, Rows: rows}, nil
}
