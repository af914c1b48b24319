package experiments

import (
	"context"
	"fmt"
	"sort"

	"tcor/internal/trace"
)

// RelatedWork extends Fig. 13 with the practical policies the paper's §VI
// discusses: the insertion family (LIP/BIP/DIP), NRU, SRRIP/DRRIP and the
// Shepherd Cache (the prior OPT-emulation approach), all against LRU, OPT
// and the analytic lower bound on the PB-Attributes stream in a 4-way
// cache. The punchline is the paper's: on this access stream none of the
// history-based policies approaches OPT — exact future knowledge is what
// closes the gap, and TCOR gets it for free from the Polygon List Builder.
func (r *Runner) RelatedWork(sizeKB int) (*Table, error) {
	policies := []string{"MRU", "NRU", "LIP", "BIP", "DIP", "SRRIP", "DRRIP", "Shepherd", "Hawkeye", "SHiP", "LRU", "OPT"}
	cp := CapacityPrims(float64(sizeKB))

	type row struct {
		name string
		miss float64
	}
	// One sweep job per policy; each job fans the suite out through the same
	// pool via missRatioAvg, and rows come back in declaration order.
	rows, err := SweepSlice(r.baseCtx(), r.Parallel, policies,
		func(_ context.Context, policy string) (row, error) {
			mr, err := r.missRatioAvg(policy, cp, 4)
			if err != nil {
				return row{}, err
			}
			return row{policyLabel(policy), mr}, nil
		})
	if err != nil {
		return nil, err
	}
	lb, err := r.lowerBoundAvg(cp)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].miss > rows[j].miss })

	t := &Table{
		Title:  fmt.Sprintf("Related-work policy comparison (§VI): %d KiB 4-way Attribute stream, suite average", sizeKB),
		Note:   "gap closed = share of the LRU-OPT miss gap the policy bridges (negative = worse than LRU)",
		Header: []string{"Policy", "Miss ratio", "Gap closed"},
	}
	var lruMiss, optMiss float64
	for _, rw := range rows {
		switch rw.name {
		case "LRU":
			lruMiss = rw.miss
		case "OPT":
			optMiss = rw.miss
		}
	}
	for _, rw := range rows {
		gap := ""
		if denom := lruMiss - optMiss; denom > 0 && rw.name != "LRU" && rw.name != "OPT" {
			gap = pct((lruMiss - rw.miss) / denom)
		}
		t.AddRow(rw.name, f3(rw.miss), gap)
	}
	t.AddRow("Lower Bound", f3(lb), "")
	return t, nil
}

// ReuseProfile characterizes the PB-Attributes access stream of a
// benchmark: the distribution of reuse intervals (distance in accesses
// between consecutive uses of a primitive), which determines how much any
// history-based replacement policy can achieve and where OPT's advantage
// comes from.
func (r *Runner) ReuseProfile(alias string) (*Table, error) {
	tr, err := r.AttributeTrace(alias)
	if err != nil {
		return nil, err
	}
	last := make(map[trace.Key]int, 4096)
	var intervals []int
	for i, a := range tr {
		if a.Write {
			continue
		}
		if lp, ok := last[a.Key]; ok {
			intervals = append(intervals, i-lp)
		}
		last[a.Key] = i
	}
	sort.Ints(intervals)

	t := &Table{
		Title:  fmt.Sprintf("Reuse-interval profile of %s (PB-Attributes read stream)", alias),
		Header: []string{"Statistic", "Value"},
	}
	t.AddRow("accesses", fmt.Sprintf("%d", len(tr)))
	t.AddRow("primitives", fmt.Sprintf("%d", trace.UniqueKeys(tr)))
	t.AddRow("reuse events", fmt.Sprintf("%d", len(intervals)))
	if len(intervals) == 0 {
		return t, nil
	}
	q := func(f float64) int { return intervals[int(f*float64(len(intervals)-1))] }
	for _, p := range []struct {
		name string
		f    float64
	}{{"p25", 0.25}, {"p50", 0.50}, {"p75", 0.75}, {"p90", 0.90}, {"p99", 0.99}} {
		t.AddRow("interval "+p.name, fmt.Sprintf("%d", q(p.f)))
	}
	// Share of reuses beyond the 48 KiB Attribute Cache capacity — the
	// OPT-vs-LRU battleground.
	cp := CapacityPrims(48)
	beyond := 0
	for _, v := range intervals {
		if v > cp {
			beyond++
		}
	}
	t.AddRow(fmt.Sprintf("intervals > CP(48KB)=%d prims", cp),
		pct(float64(beyond)/float64(len(intervals))))
	return t, nil
}
