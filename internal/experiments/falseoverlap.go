package experiments

import (
	"fmt"

	"tcor/internal/tiling"
)

// FalseOverlap quantifies the cost of bounding-box binning versus the exact
// triangle-tile overlap test (the §VI related work of Antochi et al. [2]
// and Yang et al. [39]): false overlaps inflate every Parameter Buffer
// structure — more PMDs, longer lists, more Tile Fetcher reads of
// primitives the Rasterizer then discards.
func (r *Runner) FalseOverlap(alias string) (*Table, error) {
	exact, bbox, err := r.binBothWays(alias)
	if err != nil {
		return nil, err
	}

	listBytes := func(b *tiling.Binning) int64 { return int64(b.TotalOverlaps) * 4 }
	t := &Table{
		Title:  fmt.Sprintf("False-overlap study, %s: exact vs bounding-box binning (§VI refs [2], [39])", alias),
		Header: []string{"Quantity", "Exact", "BBox", "Inflation"},
	}
	addI := func(name string, e, b int64) {
		infl := "-"
		if e > 0 {
			infl = pct(float64(b-e) / float64(e))
		}
		t.AddRow(name, fmt.Sprintf("%d", e), fmt.Sprintf("%d", b), infl)
	}
	addI("primitive-tile overlaps (PMDs)", int64(exact.TotalOverlaps), int64(bbox.TotalOverlaps))
	addI("PB-Lists bytes", listBytes(exact), listBytes(bbox))
	addI("Tile Fetcher primitive reads", int64(exact.TotalOverlaps), int64(bbox.TotalOverlaps))
	maxList := func(b *tiling.Binning) int64 {
		m := 0
		for tile := range b.Lists {
			if l := len(b.Lists[tile]); l > m {
				m = l
			}
		}
		return int64(m)
	}
	addI("longest tile list", maxList(exact), maxList(bbox))
	return t, nil
}

// FalseOverlapInflation returns the PMD inflation factor bbox/exact (for
// tests).
func (r *Runner) FalseOverlapInflation(alias string) (float64, error) {
	exact, bbox, err := r.binBothWays(alias)
	if err != nil {
		return 0, err
	}
	return float64(bbox.TotalOverlaps) / float64(exact.TotalOverlaps), nil
}

// binBothWays bins a benchmark's first frame in Z-order with the exact
// overlap test and with bounding boxes.
func (r *Runner) binBothWays(alias string) (exact, bbox *tiling.Binning, err error) {
	sc, err := r.Scene(alias)
	if err != nil {
		return nil, nil, err
	}
	trav, err := tiling.NewTraversal(r.Screen, tiling.OrderZ)
	if err != nil {
		return nil, nil, err
	}
	prims := sc.Frame(0).Prims
	if exact, err = tiling.BinWithOverlap(r.Screen, trav, prims, tiling.OverlapExact); err != nil {
		return nil, nil, err
	}
	bbox, err = tiling.BinWithOverlap(r.Screen, trav, prims, tiling.OverlapBBox)
	return exact, bbox, err
}
