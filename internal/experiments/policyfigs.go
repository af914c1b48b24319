package experiments

import (
	"fmt"

	"tcor/internal/cache"
	"tcor/internal/workload"
)

// MissCurve is one series of a policy study: miss ratio (suite average)
// against cache size.
type MissCurve struct {
	Label      string
	SizesKB    []float64
	MissRatios []float64
}

// PolicyFigure is the result of one of Figs. 1, 11, 12, 13.
type PolicyFigure struct {
	Fig    int
	Curves []MissCurve
}

// Curve returns the series with the given label, or nil.
func (p *PolicyFigure) Curve(label string) *MissCurve {
	for i := range p.Curves {
		if p.Curves[i].Label == label {
			return &p.Curves[i]
		}
	}
	return nil
}

// Table renders the figure as columns of miss ratios per size.
func (p *PolicyFigure) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure %d: miss ratio vs cache size (suite average)", p.Fig),
		Header: []string{"Size(KB)"},
	}
	for _, c := range p.Curves {
		t.Header = append(t.Header, c.Label)
	}
	if len(p.Curves) == 0 {
		return t
	}
	for i, sz := range p.Curves[0].SizesKB {
		row := []string{fmt.Sprintf("%.0f", sz)}
		for _, c := range p.Curves {
			row = append(row, f3(c.MissRatios[i]))
		}
		t.AddRow(row...)
	}
	return t
}

// policyLabel is the label the policy studies print for a registry policy
// (cache.LookupPolicy): its name, except that Fig. 13's legend calls DRRIP
// by its set-dueling width.
func policyLabel(name string) string {
	if name == "DRRIP" {
		return "DRRIP (M=2)"
	}
	return name
}

// CacheCfgFor builds a primitive-granularity cache geometry for a capacity
// of cp primitives and the requested associativity (ways<=0 means fully
// associative). The line count is rounded down to a multiple of the ways.
// The policy figures and the arena share this so "48 KiB, 4-way" means the
// same geometry everywhere.
func CacheCfgFor(cp, ways int) cache.Config {
	if ways <= 0 {
		return cache.Config{Lines: cp, WriteAllocate: true}
	}
	lines := cp / ways * ways
	if lines < ways {
		lines = ways
	}
	return cache.Config{Lines: lines, Ways: ways, WriteAllocate: true}
}

// missRatioAvg simulates the named registry policy over every benchmark's
// attribute trace and returns the suite-average miss ratio. Fully
// associative LRU takes the one-pass Mattson stack-distance path (exact —
// the cache tests prove the two agree to the access); everything else is
// event-driven.
func (r *Runner) missRatioAvg(policy string, cp, ways int) (float64, error) {
	ratios, err := forSuite(r, func(spec workload.Spec) (float64, error) {
		if policy == "LRU" && ways <= 0 {
			p, err := r.LRUProfile(spec.Alias)
			if err != nil {
				return 0, err
			}
			return p.MissRatioAt(cp), nil
		}
		tr, err := r.AttributeTrace(spec.Alias)
		if err != nil {
			return 0, err
		}
		// The policy is built inside the sweep job: every benchmark
		// simulates against a fresh instance, so no state is shared.
		p, err := cache.NewPolicy(policy)
		if err != nil {
			return 0, err
		}
		st, err := cache.Simulate(CacheCfgFor(cp, ways), p, tr)
		if err != nil {
			return 0, err
		}
		return st.MissRatio(), nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, mr := range ratios {
		sum += mr
	}
	return sum / float64(len(ratios)), nil
}

// lowerBoundAvg returns the suite-average lower-bound miss ratio for a
// capacity of cp primitives (§V-A).
func (r *Runner) lowerBoundAvg(cp int) (float64, error) {
	bounds, err := forSuite(r, func(spec workload.Spec) (float64, error) {
		tr, err := r.AttributeTrace(spec.Alias)
		if err != nil {
			return 0, err
		}
		return cache.TraceLowerBoundMissRatio(tr, cp), nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, lb := range bounds {
		sum += lb
	}
	return sum / float64(len(bounds)), nil
}

// sweep runs one registry policy and associativity over the given sizes.
func (r *Runner) sweep(label, policy string, sizesKB []float64, ways int) (MissCurve, error) {
	c := MissCurve{Label: label, SizesKB: sizesKB}
	for _, sz := range sizesKB {
		mr, err := r.missRatioAvg(policy, CapacityPrims(sz), ways)
		if err != nil {
			return c, err
		}
		c.MissRatios = append(c.MissRatios, mr)
	}
	return c, nil
}

// lbCurve builds the lower-bound series.
func (r *Runner) lbCurve(sizesKB []float64) (MissCurve, error) {
	c := MissCurve{Label: "Lower Bound", SizesKB: sizesKB}
	for _, sz := range sizesKB {
		lb, err := r.lowerBoundAvg(CapacityPrims(sz))
		if err != nil {
			return c, err
		}
		c.MissRatios = append(c.MissRatios, lb)
	}
	return c, nil
}

func sizesRange(from, to, step float64) []float64 {
	var out []float64
	for s := from; s <= to+1e-9; s += step {
		out = append(out, s)
	}
	return out
}

// Fig1 reproduces Figure 1: LRU and OPT miss ratios in a fully associative
// L1 Attribute Cache for increasing cache size.
func (r *Runner) Fig1() (*PolicyFigure, error) {
	sizes := sizesRange(8, 160, 8)
	fig := &PolicyFigure{Fig: 1}
	for _, name := range []string{"LRU", "OPT"} {
		c, err := r.sweep(name, name, sizes, 0)
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, c)
	}
	return fig, nil
}

// Fig11 reproduces Figure 11: LRU and OPT against the lower bound, fully
// associative, out to 450 KB. OPT reaches the bound at a fraction of the
// capacity LRU needs (the paper quotes 55 KiB vs 375 KiB, a factor 6.8).
func (r *Runner) Fig11() (*PolicyFigure, error) {
	sizes := sizesRange(10, 450, 20)
	fig := &PolicyFigure{Fig: 11}
	lb, err := r.lbCurve(sizes)
	if err != nil {
		return nil, err
	}
	fig.Curves = append(fig.Curves, lb)
	for _, name := range []string{"LRU", "OPT"} {
		c, err := r.sweep(name, name, sizes, 0)
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, c)
	}
	return fig, nil
}

// Fig12 reproduces Figure 12: LRU and OPT for direct-mapped, 2/4/8-way and
// fully associative caches across sizes, against the lower bound.
func (r *Runner) Fig12() (map[string]*PolicyFigure, error) {
	sizes := sizesRange(8, 160, 8)
	assocs := []struct {
		label string
		ways  int
	}{
		{"Direct Mapped", 1},
		{"Associativity 2", 2},
		{"Associativity 4", 4},
		{"Associativity 8", 8},
		{"Fully Associative", 0},
	}
	out := make(map[string]*PolicyFigure, 2)
	for _, polName := range []string{"LRU", "OPT"} {
		fig := &PolicyFigure{Fig: 12}
		lb, err := r.lbCurve(sizes)
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, lb)
		for _, a := range assocs {
			c, err := r.sweep(a.label, polName, sizes, a.ways)
			if err != nil {
				return nil, err
			}
			fig.Curves = append(fig.Curves, c)
		}
		out[polName] = fig
	}
	return out, nil
}

// Fig13 reproduces Figure 13: LRU, MRU, DRRIP (M=2) and OPT in a 4-way
// cache against the lower bound.
func (r *Runner) Fig13() (*PolicyFigure, error) {
	sizes := sizesRange(40, 160, 8)
	fig := &PolicyFigure{Fig: 13}
	lb, err := r.lbCurve(sizes)
	if err != nil {
		return nil, err
	}
	fig.Curves = append(fig.Curves, lb)
	for _, name := range []string{"MRU", "DRRIP", "LRU", "OPT"} {
		c, err := r.sweep(policyLabel(name), name, sizes, 4)
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, c)
	}
	return fig, nil
}

// OPTReachParity quantifies the Fig. 11 headline: the smallest simulated
// sizes at which OPT and LRU come within tol of the lower bound, and their
// ratio (the paper reports 6.8x).
func (r *Runner) OPTReachParity(tol float64) (optKB, lruKB, ratio float64, err error) {
	sizes := sizesRange(10, 1200, 10)
	find := func(name string) (float64, error) {
		for _, sz := range sizes {
			cp := CapacityPrims(sz)
			mr, err := r.missRatioAvg(name, cp, 0)
			if err != nil {
				return 0, err
			}
			lb, err := r.lowerBoundAvg(cp)
			if err != nil {
				return 0, err
			}
			if mr-lb <= tol {
				return sz, nil
			}
		}
		return sizes[len(sizes)-1], nil
	}
	if optKB, err = find("OPT"); err != nil {
		return
	}
	if lruKB, err = find("LRU"); err != nil {
		return
	}
	ratio = lruKB / optKB
	return
}
