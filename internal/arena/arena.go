// Package arena races an arbitrary roster of replacement policies over the
// Table II benchmarks and emits a ranked, reproducible report: misses, miss
// ratios, 3C breakdowns, distance to OPT and per-benchmark winners, plus an
// optional Fig. 11-style miss-ratio curve for every policy.
//
// The design goal is reproducibility end to end. The engine fans out
// through experiments.Sweep (results land in job order, so aggregates are
// byte-identical at any parallelism), policies come from the internal/cache
// registry (fixed seeds, proven deterministic by the cache package's
// double-run test), benchmarks are normalized to suite order, and the
// report's canonical encoding is what both `paperfig -arena` and the
// daemon's POST /v1/arena emit — the two are required to agree
// byte-for-byte.
//
// Fully-associative LRU rows never run the event simulator: they read the
// runner's memoized Mattson stack profile (StackProfile.MissesAt), which
// the cache tests prove exact. The same profile supplies every row's
// fully-associative reference for the 3C decomposition and the report's
// per-benchmark reuse-distance summaries (via stats.SummarizeReuseDist).
// When Race is given a journal (the daemon passes an async arena job's),
// completed cells journal as they finish and restore on resume, so a job
// killed mid-race re-races only the rest.
package arena

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tcor/internal/cache"
	"tcor/internal/experiments"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

// DefaultSizeKB is the headline capacity when the caller does not pick one:
// the paper's 48 KiB Attribute Cache design point.
const DefaultSizeKB = 48

// Options selects what to race. The zero value races the default roster
// over the full suite at the default capacity, fully associative.
type Options struct {
	// Policies is the roster of registry names (internal/cache.PolicyNames).
	// Empty means DefaultRoster. LRU and OPT are always raced: they anchor
	// the report's gap-closed and distance-to-OPT columns.
	Policies []string `json:"policies"`
	// Benchmarks restricts the suite by alias; empty means all ten. The
	// report always lists them in paper order regardless of request order.
	Benchmarks []string `json:"benchmarks"`
	// SizeKB is the headline capacity in KiB (0 = DefaultSizeKB).
	SizeKB float64 `json:"sizeKB"`
	// Ways is the associativity (0 = fully associative).
	Ways int `json:"ways"`
	// Curves adds the Fig. 11-style miss-ratio-vs-size series per policy.
	Curves bool `json:"curves"`
	// CurveSizesKB overrides the curve's size grid (sorted ascending,
	// deduplicated). Empty with Curves set uses DefaultCurveSizesKB.
	CurveSizesKB []float64 `json:"curveSizesKB,omitempty"`
	// Parallel bounds the sweep workers (0 = GOMAXPROCS). It never affects
	// report bytes, so it is excluded from content addressing.
	Parallel int `json:"-"`
}

// DefaultRoster returns the standard arena roster: every registered policy
// except PLRU, whose power-of-two-associativity constraint would restrict
// the geometry of the whole race (add it explicitly with Ways set to a
// power of two).
func DefaultRoster() []string {
	var out []string
	for _, name := range cache.PolicyNames() {
		if name != "PLRU" {
			out = append(out, name)
		}
	}
	return out
}

// DefaultCurveSizesKB is the curve grid used when Curves is requested
// without an explicit one: 16..160 KiB in 16 KiB steps, bracketing the
// paper's 48 KiB design point.
func DefaultCurveSizesKB() []float64 {
	var out []float64
	for s := 16.0; s <= 160; s += 16 {
		out = append(out, s)
	}
	return out
}

// Normalize canonicalizes options: policy names resolve to registry
// spelling and deduplicate (first occurrence wins, LRU and OPT appended if
// absent), benchmarks resolve to suite order, defaults apply. Two requests
// meaning the same race normalize to identical Options — which is what the
// serving layer content-addresses. Errors name the offending input.
func Normalize(opts Options) (Options, error) {
	out := opts
	if out.SizeKB == 0 {
		out.SizeKB = DefaultSizeKB
	}
	if out.SizeKB < 1 || out.SizeKB > 4096 {
		return out, fmt.Errorf("arena: sizeKB %g out of range [1, 4096]", out.SizeKB)
	}
	if out.Ways < 0 {
		return out, fmt.Errorf("arena: negative ways %d", out.Ways)
	}

	roster := out.Policies
	if len(roster) == 0 {
		roster = DefaultRoster()
	}
	seen := make(map[string]bool, len(roster))
	canon := make([]string, 0, len(roster)+2)
	for _, name := range roster {
		c, err := cache.CanonicalPolicyName(name)
		if err != nil {
			return out, fmt.Errorf("arena: %w", err)
		}
		if !seen[c] {
			seen[c] = true
			canon = append(canon, c)
		}
	}
	for _, anchor := range []string{"LRU", "OPT"} {
		if !seen[anchor] {
			canon = append(canon, anchor)
		}
	}
	out.Policies = canon
	if seen["PLRU"] && !isPow2(out.Ways) {
		return out, fmt.Errorf("arena: PLRU needs a power-of-two associativity; set ways explicitly (got %d)", out.Ways)
	}

	suite := workload.Suite()
	if len(out.Benchmarks) == 0 {
		out.Benchmarks = make([]string, len(suite))
		for i, s := range suite {
			out.Benchmarks[i] = s.Alias
		}
	} else {
		want := make(map[string]bool, len(out.Benchmarks))
		for _, alias := range out.Benchmarks {
			if _, err := workload.ByAlias(alias); err != nil {
				return out, fmt.Errorf("arena: %w", err)
			}
			want[alias] = true
		}
		ordered := make([]string, 0, len(want))
		for _, s := range suite {
			if want[s.Alias] {
				ordered = append(ordered, s.Alias)
			}
		}
		out.Benchmarks = ordered
	}

	if out.Curves {
		if len(out.CurveSizesKB) == 0 {
			out.CurveSizesKB = DefaultCurveSizesKB()
		}
		for _, s := range out.CurveSizesKB {
			if s < 1 || s > 4096 {
				return out, fmt.Errorf("arena: curve size %g KiB out of range [1, 4096]", s)
			}
		}
	} else {
		out.CurveSizesKB = nil
	}
	return out, nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// cellPayload is the checkpoint-journal shape of one completed cell.
type cellPayload struct {
	Misses     int64 `json:"misses"`
	Accesses   int64 `json:"accesses"`
	Compulsory int64 `json:"compulsory"`
	Capacity   int64 `json:"capacity"`
	Conflict   int64 `json:"conflict"`
}

// cellSHA pins the geometry a journaled cell was measured under: the
// journal key names (benchmark, policy), this hash pins what the name
// meant.
func cellSHA(cfg cache.Config) string {
	b, _ := json.Marshal(struct {
		Lines int `json:"lines"`
		Ways  int `json:"ways"`
	}{cfg.Lines, cfg.Ways})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// raceCell measures one (benchmark, policy, capacity) cell. Fully
// associative LRU reads the stack profile; everything else runs the event
// simulator against a fresh registry instance. Either way the 3C
// decomposition's fully-associative reference comes from the profile, and
// completed cells round-trip through journal (nil = none).
func raceCell(r *experiments.Runner, journal *experiments.Checkpoint, alias, policy string, cp, ways int) (cellPayload, error) {
	cfg := experiments.CacheCfgFor(cp, ways)
	journalKey := "arena/" + alias + "/" + policy
	sha := cellSHA(cfg)
	if raw, ok := journal.Lookup(journalKey, sha); ok {
		var cell cellPayload
		if err := json.Unmarshal(raw, &cell); err == nil {
			return cell, nil
		}
	}

	prof, err := r.LRUProfile(alias)
	if err != nil {
		return cellPayload{}, err
	}
	fullyAssoc := ways <= 0
	var cell cellPayload
	if policy == "LRU" && fullyAssoc {
		misses := prof.MissesAt(cfg.Lines)
		cell = cellPayload{
			Misses:     misses,
			Accesses:   prof.Total,
			Compulsory: prof.Cold,
			Capacity:   misses - prof.Cold,
			Conflict:   0,
		}
	} else {
		tr, err := r.AttributeTrace(alias)
		if err != nil {
			return cellPayload{}, err
		}
		p, err := cache.NewPolicy(policy)
		if err != nil {
			return cellPayload{}, err
		}
		st, err := cache.Simulate(cfg, p, tr)
		if err != nil {
			return cellPayload{}, fmt.Errorf("arena: %s under %s: %w", alias, policy, err)
		}
		// The fully-associative LRU reference at the same line count comes
		// from the one-pass profile instead of a second simulation.
		c3 := cache.Classify3CFromCounts(st, prof.MissesAt(cfg.Lines), prof.Cold)
		cell = cellPayload{
			Misses:     st.Misses,
			Accesses:   st.Accesses,
			Compulsory: c3.Compulsory,
			Capacity:   c3.Capacity,
			Conflict:   c3.Conflict,
		}
	}
	if err := journal.Journal(journalKey, sha, cell); err != nil {
		return cellPayload{}, fmt.Errorf("arena: journaling %s: %w", journalKey, err)
	}
	return cell, nil
}

// Race runs the arena: every roster policy over every selected benchmark at
// the headline capacity (plus the curve grid when requested), fanned out
// through the experiments sweep pool, then ranked. The report's bytes are
// independent of opts.Parallel and of prior memoization state. journal,
// when non-nil (open one with experiments.OpenJournal), journals every
// completed cell and restores journaled ones instead of racing them again.
func Race(ctx context.Context, r *experiments.Runner, opts Options, journal *experiments.Checkpoint) (*Report, error) {
	opts, err := Normalize(opts)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	cp := experiments.CapacityPrims(opts.SizeKB)
	headlineCfg := experiments.CacheCfgFor(cp, opts.Ways)

	// One job per (benchmark, policy) pair, benchmarks outermost so the
	// flat result slice groups by benchmark.
	type cellJob struct {
		alias, policy string
		cp            int
	}
	var jobs []cellJob
	for _, alias := range opts.Benchmarks {
		for _, policy := range opts.Policies {
			jobs = append(jobs, cellJob{alias, policy, cp})
		}
	}
	curveBase := len(jobs)
	for _, sz := range opts.CurveSizesKB {
		for _, alias := range opts.Benchmarks {
			for _, policy := range opts.Policies {
				jobs = append(jobs, cellJob{alias, policy, experiments.CapacityPrims(sz)})
			}
		}
	}

	cells, err := experiments.SweepSlice(ctx, opts.Parallel, jobs,
		func(_ context.Context, j cellJob) (cellPayload, error) {
			return raceCell(r, journal, j.alias, j.policy, j.cp, opts.Ways)
		})
	if err != nil {
		return nil, err
	}

	// Per-benchmark reuse-distance summaries come from the same memoized
	// profiles the cells used; by now every profile is a memo hit.
	reuse := make(map[string]stats.ReuseDistSummary, len(opts.Benchmarks))
	for _, alias := range opts.Benchmarks {
		prof, err := r.LRUProfile(alias)
		if err != nil {
			return nil, err
		}
		reuse[alias] = stats.SummarizeReuseDist(prof.Distances, prof.Cold)
	}

	rep := buildReport(opts, headlineCfg, r.Frames, cells[:curveBase], reuse)
	if opts.Curves {
		rep.Curves = buildCurves(opts, cells[curveBase:])
	}
	return rep, nil
}
