package gpu

import (
	"testing"

	"tcor/internal/geom"
	"tcor/internal/memmap"
	"tcor/internal/workload"
)

// smallScene generates a reduced benchmark for fast tests.
func smallScene(t *testing.T, alias string, frames int) *workload.Scene {
	t.Helper()
	spec, err := workload.ByAlias(alias)
	if err != nil {
		t.Fatal(err)
	}
	spec.Frames = frames
	sc, err := workload.Generate(spec, geom.DefaultScreen())
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestConfigConstructors(t *testing.T) {
	b := Baseline(64 * 1024)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Kind != KindBaseline || b.L2Enhanced || b.InterleavedLists {
		t.Errorf("baseline config wrong: %+v", b)
	}
	c := TCOR(64 * 1024)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Kind != KindTCOR || !c.L2Enhanced || !c.InterleavedLists || !c.WriteBypass {
		t.Errorf("tcor config wrong: %+v", c)
	}
	n := TCORNoL2(64 * 1024)
	if n.L2Enhanced || !n.InterleavedLists {
		t.Errorf("tcor-no-l2 config wrong: %+v", n)
	}
	if KindBaseline.String() != "baseline" || KindTCOR.String() != "TCOR" {
		t.Error("kind names")
	}
	bad := Baseline(0)
	if err := bad.Validate(); err == nil {
		t.Error("zero tile cache must fail validation")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	split := TCOR(64 << 10)
	split.L2.Enhanced = false
	if err := split.Validate(); err == nil {
		t.Error("L2Enhanced disagreeing with L2.Enhanced must fail validation")
	}
}

func TestSimulateBaselineRuns(t *testing.T) {
	sc := smallScene(t, "CCS", 1)
	res, err := Simulate(sc, Baseline(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 1 {
		t.Errorf("frames = %d", res.Frames)
	}
	if res.PrimReads == 0 || res.TFCycles == 0 {
		t.Error("no tile fetcher activity")
	}
	if res.L2In.PB().Reads == 0 {
		t.Error("no PB reads reached the L2")
	}
	if res.RasterStats.Fragments == 0 {
		t.Error("no fragments shaded")
	}
	if res.DRAMIn.Region(memmap.RegionFrameBuffer).Writes == 0 {
		t.Error("no frame buffer flush traffic")
	}
	if res.MemHierarchyPJ <= 0 || res.TotalPJ <= res.MemHierarchyPJ {
		t.Errorf("energy accounting: hierarchy=%v total=%v", res.MemHierarchyPJ, res.TotalPJ)
	}
	if ppc := res.PPC(); ppc <= 0 || ppc > 1 {
		t.Errorf("baseline PPC = %v, want (0, 1]", ppc)
	}
	if res.FPS(600e6) <= 0 {
		t.Error("FPS must be positive")
	}
}

func TestSimulateTCORRuns(t *testing.T) {
	sc := smallScene(t, "CCS", 1)
	res, err := Simulate(sc, TCOR(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	if res.AttrStats.Reads == 0 || res.AttrStats.Writes == 0 {
		t.Error("attribute cache unused")
	}
	if res.ListStats.Reads == 0 {
		t.Error("list cache unused")
	}
	if res.AttrStats.ReadHits == 0 {
		t.Error("OPT attribute cache should hit sometimes")
	}
}

// The headline qualitative claims of the paper, on one benchmark:
// TCOR cuts PB traffic to the L2, nearly eliminates PB traffic to main
// memory, consumes less memory-hierarchy energy, and speeds up the Tile
// Fetcher severalfold.
func TestTCORBeatsBaselineOnPaperMetrics(t *testing.T) {
	sc := smallScene(t, "SoD", 2) // high-reuse benchmark, strong TCOR case
	base, err := Simulate(sc, Baseline(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := Simulate(sc, TCOR(64*1024))
	if err != nil {
		t.Fatal(err)
	}

	bPB := base.L2In.PB()
	tPB := tc.L2In.PB()
	if tPB.Reads+tPB.Writes >= bPB.Reads+bPB.Writes {
		t.Errorf("PB accesses to L2: TCOR %d >= baseline %d",
			tPB.Reads+tPB.Writes, bPB.Reads+bPB.Writes)
	}

	bMem := base.DRAMIn.PB()
	tMem := tc.DRAMIn.PB()
	if tMem.Reads+tMem.Writes > (bMem.Reads+bMem.Writes)/2 {
		t.Errorf("PB accesses to memory: TCOR %d, baseline %d — expected a large reduction",
			tMem.Reads+tMem.Writes, bMem.Reads+bMem.Writes)
	}

	if tc.MemHierarchyPJ >= base.MemHierarchyPJ {
		t.Errorf("memory hierarchy energy: TCOR %.0f >= baseline %.0f",
			tc.MemHierarchyPJ, base.MemHierarchyPJ)
	}
	if tc.TotalPJ >= base.TotalPJ {
		t.Errorf("total energy: TCOR %.0f >= baseline %.0f", tc.TotalPJ, base.TotalPJ)
	}

	speedup := tc.PPC() / base.PPC()
	if speedup < 1.5 {
		t.Errorf("tile fetcher speedup = %.2fx, want clearly above 1", speedup)
	}
	if tc.FPS(600e6) <= base.FPS(600e6) {
		t.Errorf("FPS: TCOR %.2f <= baseline %.2f", tc.FPS(600e6), base.FPS(600e6))
	}
}

func TestDeterminism(t *testing.T) {
	sc := smallScene(t, "GTr", 1)
	a, err := Simulate(sc, TCOR(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(sc, TCOR(64*1024))
	if a.PrimReads != b.PrimReads || a.TFCycles != b.TFCycles ||
		a.MemHierarchyPJ != b.MemHierarchyPJ ||
		a.DRAM.Reads != b.DRAM.Reads {
		t.Error("simulation is not deterministic")
	}
}

func TestL2EnhancementReducesPBMemoryTraffic(t *testing.T) {
	sc := smallScene(t, "CRa", 1) // larger PB: L2 pressure matters
	noL2, err := Simulate(sc, TCORNoL2(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Simulate(sc, TCOR(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	nPB := noL2.DRAMIn.PB()
	fPB := full.DRAMIn.PB()
	if fPB.Reads+fPB.Writes > nPB.Reads+nPB.Writes {
		t.Errorf("L2 enhancements increased PB memory traffic: %d vs %d",
			fPB.Reads+fPB.Writes, nPB.Reads+nPB.Writes)
	}
	if full.MemHierarchyPJ > noL2.MemHierarchyPJ {
		t.Errorf("L2 enhancements increased energy: %.0f vs %.0f",
			full.MemHierarchyPJ, noL2.MemHierarchyPJ)
	}
}

func TestLeakageAccounting(t *testing.T) {
	sc := smallScene(t, "GTr", 1)
	off, err := Simulate(sc, TCOR(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	cfg := TCOR(64 * 1024)
	cfg.IncludeLeakage = true
	on, err := Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.MemHierarchyPJ <= off.MemHierarchyPJ {
		t.Error("leakage must add energy")
	}
	if on.Tally.Get("leakage").PJ <= 0 {
		t.Error("leakage component missing")
	}
	// Leakage is a minor correction, not a rebalancing of the model.
	if on.Tally.Get("leakage").PJ > 0.25*on.MemHierarchyPJ {
		t.Errorf("leakage %.0f pJ dominates the hierarchy energy %.0f",
			on.Tally.Get("leakage").PJ, on.MemHierarchyPJ)
	}
}

func TestPerFrameStats(t *testing.T) {
	sc := smallScene(t, "CCS", 3)
	res, err := Simulate(sc, TCOR(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFrame) != 3 {
		t.Fatalf("per-frame entries = %d, want 3", len(res.PerFrame))
	}
	var prims, tf, tile, dr, dw int64
	for i, fs := range res.PerFrame {
		if fs.Frame != i {
			t.Errorf("frame index %d at slot %d", fs.Frame, i)
		}
		if fs.PrimReads == 0 || fs.TFCycles == 0 || fs.TileCycles < fs.TFCycles {
			t.Errorf("frame %d degenerate: %+v", i, fs)
		}
		prims += fs.PrimReads
		tf += fs.TFCycles
		tile += fs.TileCycles
		dr += fs.DRAMReads
		dw += fs.DRAMWrites
	}
	// Per-frame slices must sum to the run totals.
	if prims != res.PrimReads {
		t.Errorf("per-frame prim reads %d != total %d", prims, res.PrimReads)
	}
	if tf != res.TFCycles {
		t.Errorf("per-frame TF cycles %d != total %d", tf, res.TFCycles)
	}
	if dr != res.DRAM.Reads || dw != res.DRAM.Writes {
		t.Errorf("per-frame DRAM %d/%d != totals %d/%d", dr, dw, res.DRAM.Reads, res.DRAM.Writes)
	}
	if tile != res.FrameCycles-res.GeomCycles-res.PLBCycles && tile > res.FrameCycles {
		t.Errorf("tile cycles %d inconsistent with frame cycles %d", tile, res.FrameCycles)
	}
}
