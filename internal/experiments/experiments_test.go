package experiments

import (
	"strings"
	"testing"
	"time"

	"tcor/internal/cache"
)

// fastRunner restricts the suite and frame count to keep tests quick.
func fastRunner(benchmarks ...string) *Runner {
	r := NewRunner()
	r.Frames = 1
	if len(benchmarks) > 0 {
		r.Benchmarks = benchmarks
	}
	return r
}

func TestFig1OPTNeverWorseThanLRU(t *testing.T) {
	r := fastRunner("CCS", "DDS", "SoD")
	fig, err := r.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	lru, opt := fig.Curve("LRU"), fig.Curve("OPT")
	if lru == nil || opt == nil {
		t.Fatal("missing curves")
	}
	for i := range lru.SizesKB {
		if opt.MissRatios[i] > lru.MissRatios[i]+1e-9 {
			t.Errorf("size %.0fKB: OPT %.3f > LRU %.3f",
				lru.SizesKB[i], opt.MissRatios[i], lru.MissRatios[i])
		}
	}
	// Bigger caches never miss more (fully associative LRU inclusion).
	for i := 1; i < len(lru.MissRatios); i++ {
		if lru.MissRatios[i] > lru.MissRatios[i-1]+1e-9 {
			t.Errorf("LRU miss ratio increased with size at %.0fKB", lru.SizesKB[i])
		}
	}
	// Table renders.
	tab := fig.Table()
	if len(tab.Rows) != len(lru.SizesKB) || !strings.Contains(tab.String(), "OPT") {
		t.Error("figure table malformed")
	}
}

func TestFig11RespectsLowerBound(t *testing.T) {
	r := fastRunner("CCS", "GTr")
	fig, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	lb, lru, opt := fig.Curve("Lower Bound"), fig.Curve("LRU"), fig.Curve("OPT")
	for i := range lb.SizesKB {
		if opt.MissRatios[i] < lb.MissRatios[i]-1e-9 {
			t.Errorf("size %.0f: OPT %.4f below the lower bound %.4f",
				lb.SizesKB[i], opt.MissRatios[i], lb.MissRatios[i])
		}
		if lru.MissRatios[i] < opt.MissRatios[i]-1e-9 {
			t.Errorf("size %.0f: LRU beats OPT", lb.SizesKB[i])
		}
	}
}

func TestOPTReachParity(t *testing.T) {
	r := fastRunner("CCS", "GTr", "SoD")
	optKB, lruKB, ratio, err := r.OPTReachParity(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if optKB >= lruKB {
		t.Errorf("OPT reaches the bound at %.0fKB, LRU at %.0fKB — OPT must be earlier", optKB, lruKB)
	}
	if ratio < 1.5 {
		t.Errorf("LRU/OPT capacity ratio = %.1f, want clearly above 1 (paper: 6.8)", ratio)
	}
}

func TestFig12AssociativityOrdering(t *testing.T) {
	r := fastRunner("CCS", "DDS")
	figs, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"LRU", "OPT"} {
		fig := figs[pol]
		dm := fig.Curve("Direct Mapped")
		fa := fig.Curve("Fully Associative")
		lb := fig.Curve("Lower Bound")
		if dm == nil || fa == nil || lb == nil {
			t.Fatalf("%s: missing curves", pol)
		}
		worse, n := 0, len(dm.MissRatios)
		for i := 0; i < n; i++ {
			if fa.MissRatios[i] > dm.MissRatios[i]+1e-9 {
				worse++
			}
			if fa.MissRatios[i] < lb.MissRatios[i]-1e-9 {
				t.Errorf("%s: fully associative beats the lower bound at %.0fKB", pol, dm.SizesKB[i])
			}
		}
		// Full associativity should essentially never lose to direct mapped.
		if worse > n/10 {
			t.Errorf("%s: fully associative worse than direct mapped at %d/%d sizes", pol, worse, n)
		}
	}
}

func TestFig13PolicyOrdering(t *testing.T) {
	r := fastRunner("CCS", "SoD", "DDS")
	fig, err := r.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	mru := fig.Curve("MRU")
	lru := fig.Curve("LRU")
	opt := fig.Curve("OPT")
	// Average over sizes: the paper's ordering MRU worst, OPT best.
	avg := func(c *MissCurve) float64 {
		var s float64
		for _, v := range c.MissRatios {
			s += v
		}
		return s / float64(len(c.MissRatios))
	}
	if !(avg(opt) < avg(lru) && avg(lru) < avg(mru)) {
		t.Errorf("policy ordering broken: OPT %.3f LRU %.3f MRU %.3f",
			avg(opt), avg(lru), avg(mru))
	}
}

func TestFig14TCORReducesPBL2(t *testing.T) {
	r := fastRunner("CCS", "DDS")
	fig, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		if row.Decrease <= 0 {
			t.Errorf("%s: decrease %.2f%%, want positive", row.Alias, 100*row.Decrease)
		}
	}
	if fig.Average <= 0.05 {
		t.Errorf("average decrease %.2f%% too small", 100*fig.Average)
	}
	if !strings.Contains(fig.Table().String(), "Figure 14") {
		t.Error("table title")
	}
}

func TestFig16NearlyEliminatesPBMemTraffic(t *testing.T) {
	r := fastRunner("CCS", "DDS")
	fig, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		switch row.Alias {
		case "CCS": // small PB: complete elimination, as in the paper
			if row.TCORReads+row.TCORWrites != 0 {
				t.Errorf("CCS: PB memory traffic %d, want 0", row.TCORReads+row.TCORWrites)
			}
		case "DDS": // PB larger than the L2: partial, but still a big cut
			if row.Decrease < 0.3 {
				t.Errorf("DDS: decrease %.1f%%, want substantial", 100*row.Decrease)
			}
		}
	}
}

func TestFig20EnergyOrdering(t *testing.T) {
	r := fastRunner("CCS", "DDS")
	fig, err := r.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		if !(row.TCORPJ <= row.NoL2PJ && row.NoL2PJ <= row.BasePJ) {
			t.Errorf("%s: energy ordering broken: base %.0f noL2 %.0f tcor %.0f",
				row.Alias, row.BasePJ, row.NoL2PJ, row.TCORPJ)
		}
	}
	if fig.AvgTCOR < fig.AvgNoL2 {
		t.Error("full TCOR average saving below the no-L2 variant")
	}
}

func TestFig22And23Positive(t *testing.T) {
	r := fastRunner("CCS")
	g, err := r.Fig22()
	if err != nil {
		t.Fatal(err)
	}
	if g.Avg64 <= 0 || g.Avg128 <= 0 {
		t.Errorf("GPU energy decreases = %.2f%%/%.2f%%", 100*g.Avg64, 100*g.Avg128)
	}
	th, err := r.Fig23()
	if err != nil {
		t.Fatal(err)
	}
	if th.AvgSpeedup < 1.5 {
		t.Errorf("tile fetcher speedup %.2fx, want > 1.5", th.AvgSpeedup)
	}
	for _, row := range th.Rows {
		if row.TCORPPC > 1 || row.BasePPC > 1 {
			t.Errorf("%s: PPC above 1 primitive/cycle", row.Alias)
		}
	}
}

func TestHeadlineShape(t *testing.T) {
	r := fastRunner("CCS", "SoD")
	h, err := r.Headline()
	if err != nil {
		t.Fatal(err)
	}
	if h.MemHierarchyDecrease <= 0 || h.GPUEnergyDecrease <= 0 ||
		h.FPSIncrease <= 0 || h.TilingSpeedup <= 1 {
		t.Errorf("headline not in the paper's direction: %+v", h)
	}
	if h.GPUEnergyDecrease >= h.MemHierarchyDecrease {
		t.Error("total GPU saving must be diluted relative to hierarchy saving")
	}
	if !strings.Contains(h.Table().String(), "13.8%") {
		t.Error("headline table should cite the paper numbers")
	}
}

func TestFig910Example(t *testing.T) {
	lru, opt, err := Fig910Totals()
	if err != nil {
		t.Fatal(err)
	}
	if opt >= lru {
		t.Errorf("example: OPT L2 accesses %d >= LRU %d", opt, lru)
	}
	tab, err := Fig910()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	// The paper's narrative: the third write bypasses under OPT.
	if !strings.Contains(out, "byp.") {
		t.Error("expected a bypass in the example")
	}
	if len(tab.Rows) != 13 { // 3 writes + 9 reads + totals
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestTableIAndII(t *testing.T) {
	t1 := TableI()
	if !strings.Contains(t1.String(), "Z-order") {
		t.Error("Table I content")
	}
	r := fastRunner()
	t2, err := r.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 10 {
		t.Errorf("Table II rows = %d", len(t2.Rows))
	}
	if !strings.Contains(t2.String(), "Candy Crush Saga") {
		t.Error("Table II content")
	}
}

func TestAblation(t *testing.T) {
	r := fastRunner("CCS")
	a, err := r.Ablation("CCS", 64)
	if err != nil {
		t.Fatal(err)
	}
	full := a.Row("TCOR (full)")
	base := a.Row("baseline")
	noLayout := a.Row("no interleaved layout")
	noL2 := a.Row("no L2 enhancements")
	if full == nil || base == nil || noLayout == nil || noL2 == nil {
		t.Fatal("missing ablation rows")
	}
	if full.PBL2 >= base.PBL2 {
		t.Error("full TCOR should beat the baseline on PB L2 traffic")
	}
	if full.PBL2 >= noLayout.PBL2 {
		t.Error("removing the interleaved layout should hurt PB L2 traffic")
	}
	if full.PBMem > noL2.PBMem {
		t.Error("removing the L2 enhancements should not reduce PB memory traffic")
	}
	if full.PPC <= base.PPC {
		t.Error("full TCOR should out-throughput the baseline")
	}
	if !strings.Contains(a.Table().String(), "Ablation") {
		t.Error("ablation table")
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := fastRunner("CCS")
	a, err := r.Scene("CCS")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.Scene("CCS")
	if a != b {
		t.Error("scenes not memoized")
	}
	tr1, err := r.AttributeTrace("CCS")
	if err != nil {
		t.Fatal(err)
	}
	tr2, _ := r.AttributeTrace("CCS")
	if &tr1[0] != &tr2[0] {
		t.Error("traces not memoized")
	}
	// Each table meters one miss per computed key and one hit per reuse;
	// the trace's Binning reads the memoized scene and keeps no table.
	snap := r.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"memo.scenes.misses": 1, "memo.scenes.hits": 2,
		"memo.traces.misses": 1, "memo.traces.hits": 1,
	} {
		if got := snap.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if _, err := r.Scene("nope"); err == nil {
		t.Error("unknown alias must fail")
	}
}

func TestCapacityPrims(t *testing.T) {
	if CapacityPrims(48) != 48*1024/192 {
		t.Errorf("CapacityPrims(48) = %d", CapacityPrims(48))
	}
	if CapacityPrims(0.01) != 1 {
		t.Error("capacity floor is one primitive")
	}
}

func TestParallelRenderers(t *testing.T) {
	r := fastRunner("SoD")
	p, err := r.ParallelRenderers("SoD", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Points) < 5 {
		t.Fatalf("points = %d", len(p.Points))
	}
	// FPS is non-decreasing in renderer count for both configurations.
	for i := 1; i < len(p.Points); i++ {
		if p.Points[i].BaseFPS < p.Points[i-1].BaseFPS-1e-9 ||
			p.Points[i].TCORFPS < p.Points[i-1].TCORFPS-1e-9 {
			t.Fatalf("FPS regressed with more renderers at point %d", i)
		}
	}
	// TCOR keeps scaling past the baseline's knee (the paper's §VII
	// motivation: the faster Tiling Engine feeds more renderers).
	if p.TCORKnee <= p.BaseKnee {
		t.Errorf("TCOR knee %d <= baseline knee %d", p.TCORKnee, p.BaseKnee)
	}
	last := p.Points[len(p.Points)-1]
	if last.TCORFPS <= last.BaseFPS {
		t.Error("TCOR must outscale the baseline at high renderer counts")
	}
	if got := p.Table().String(); got == "" {
		t.Error("empty table")
	}
}

func TestRelatedWorkComparison(t *testing.T) {
	r := fastRunner("CCS", "SoD")
	tab, err := r.RelatedWork(48)
	if err != nil {
		t.Fatal(err)
	}
	// Rows are sorted worst-first; OPT must be the best policy (last
	// before the lower bound) and MRU the worst (first).
	if tab.Rows[0][0] != "MRU" {
		t.Errorf("worst policy = %s, want MRU", tab.Rows[0][0])
	}
	n := len(tab.Rows)
	if tab.Rows[n-1][0] != "Lower Bound" || tab.Rows[n-2][0] != "OPT" {
		t.Errorf("best rows = %v / %v, want OPT then Lower Bound",
			tab.Rows[n-2][0], tab.Rows[n-1][0])
	}
	if !strings.Contains(tab.String(), "Shepherd") {
		t.Error("shepherd missing from the comparison")
	}
}

func TestReuseProfile(t *testing.T) {
	r := fastRunner("TRu")
	tab, err := r.ReuseProfile("TRu")
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"p50", "p99", "reuse events", "intervals >"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile missing %q", want)
		}
	}
	if _, err := r.ReuseProfile("nope"); err == nil {
		t.Error("unknown alias must fail")
	}
}

func TestTBRvsIMR(t *testing.T) {
	r := fastRunner("SoD")
	ratio, err := r.IMRRatio("SoD")
	if err != nil {
		t.Fatal(err)
	}
	// The §II background claim: TBR roughly halves external traffic
	// (Antochi et al.: 1.96x). Accept anything clearly above parity.
	if ratio < 1.3 {
		t.Errorf("IMR/TBR traffic ratio = %.2fx, want clearly above 1 (paper cites ~1.96x)", ratio)
	}
	tab, err := r.TBRvsIMR("SoD")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "traffic ratio") {
		t.Error("table malformed")
	}
}

func TestSizeSweep(t *testing.T) {
	r := fastRunner("GTr")
	tab, rows, err := r.SizeSweep("GTr")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The baseline's PB L2 traffic decreases monotonically with cache size.
	for i := 1; i < len(rows); i++ {
		if rows[i].BasePBL2 > rows[i-1].BasePBL2 {
			t.Errorf("baseline PB traffic grew from %d to %d KiB",
				rows[i-1].SizeKB, rows[i].SizeKB)
		}
	}
	// TCOR wins at the paper's sizes.
	for _, row := range rows {
		if row.SizeKB <= 128 && row.Decrease <= 0 {
			t.Errorf("%d KiB: no decrease", row.SizeKB)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Title:  "t",
		Note:   "n",
		Header: []string{"a", "b"},
	}
	tab.AddRow("1", "with,comma")
	out := tab.CSV()
	want := "# t\n# n\na,b\n1,\"with,comma\"\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestFalseOverlap(t *testing.T) {
	r := fastRunner("TRu") // sliver-heavy: bbox binning hurts
	infl, err := r.FalseOverlapInflation("TRu")
	if err != nil {
		t.Fatal(err)
	}
	if infl <= 1 {
		t.Errorf("bbox binning inflation = %.2fx, must exceed exact binning", infl)
	}
	tab, err := r.FalseOverlap("TRu")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestStackProfilePathMatchesSimulation(t *testing.T) {
	// The fast LRU path (Mattson stack distances) must agree with the
	// event-driven simulator the other policies use.
	r := fastRunner("GTr")
	tr, err := r.AttributeTrace("GTr")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.LRUProfile("GTr")
	if err != nil {
		t.Fatal(err)
	}
	for _, sizeKB := range []float64{16, 48, 96} {
		cp := CapacityPrims(sizeKB)
		st, err := cache.Simulate(cache.Config{Lines: cp, WriteAllocate: true}, cache.NewLRU(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.MissesAt(cp); got != st.Misses {
			t.Errorf("%vKB: profile %d misses, simulator %d", sizeKB, got, st.Misses)
		}
	}
}

func TestWriteReport(t *testing.T) {
	r := fastRunner("CCS")
	var b strings.Builder
	if err := r.WriteReport(&b, time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TCOR reproduction results", "Headline", "Fig. 16", "Related-work", "2026-07-04",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestTileSizeSweep(t *testing.T) {
	r := fastRunner("GTr")
	tab, rows, err := r.TileSizeSweep("GTr")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Smaller tiles mean more tiles and more re-use for the SAME geometry.
	for i := 1; i < len(rows); i++ {
		if rows[i].Tiles >= rows[i-1].Tiles {
			t.Errorf("tile count must shrink with larger tiles: %+v", rows)
		}
		if rows[i].AvgReuse > rows[i-1].AvgReuse+1e-9 {
			t.Errorf("re-use must not grow with larger tiles: %.2f -> %.2f",
				rows[i-1].AvgReuse, rows[i].AvgReuse)
		}
	}
	// TCOR wins at every granularity.
	for _, row := range rows {
		if row.Decrease <= 0 {
			t.Errorf("%dpx tiles: no decrease", row.TileSize)
		}
	}
}
