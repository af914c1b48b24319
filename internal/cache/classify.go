package cache

import "tcor/internal/trace"

// Breakdown3C is the classic three-C decomposition of cache misses.
type Breakdown3C struct {
	Compulsory int64 // first-touch misses: unavoidable at any size
	Capacity   int64 // misses a fully-associative LRU cache of equal size also takes
	Conflict   int64 // extra misses caused by the set mapping
	Total      int64
}

// Classify3C decomposes the misses of a cache configuration on a trace into
// compulsory, capacity and conflict components by Hill's standard method:
// compulsory misses are first touches, capacity misses are the non-compulsory
// misses of a fully associative LRU cache with the same line count, and
// conflict misses are whatever the real configuration takes beyond that.
//
// The decomposition is what quantifies the paper's §III-B claim: the
// baseline contiguous PB-Lists layout turns a large fraction of list
// accesses into conflict misses, and the interleaved layout (or an
// XOR-based index) removes them.
func Classify3C(cfg Config, policy Policy, tr trace.Trace) (Breakdown3C, error) {
	var out Breakdown3C
	real, err := Simulate(cfg, policy, tr)
	if err != nil {
		return out, err
	}
	fa := cfg
	fa.Ways = 0 // fully associative
	fa.Index = nil
	faStats, err := Simulate(fa, NewLRU(), tr)
	if err != nil {
		return out, err
	}
	return Classify3CFromCounts(real, faStats.Misses, distinctKeys(tr)), nil
}

// distinctKeys counts the keys tr touches: its compulsory misses, since a
// key's first access misses in every configuration, write-allocate or not.
func distinctKeys(tr trace.Trace) int64 {
	seen := make(map[trace.Key]struct{})
	for _, a := range tr {
		seen[a.Key] = struct{}{}
	}
	return int64(len(seen))
}

// Classify3CFromCounts is the normalization core of Classify3C, decomposing
// already-measured miss counts: real is the configuration under study,
// faMisses the fully-associative LRU reference at the same line count and
// faCompulsory its first touches, which are the compulsory misses of every
// configuration. Callers that already hold a Mattson stack profile (the
// arena: faMisses = StackProfile.MissesAt(lines), faCompulsory = Cold)
// decompose without re-running either simulation — the profile and the
// event-driven simulator agree exactly, as the stackdist tests prove.
func Classify3CFromCounts(real Stats, faMisses, faCompulsory int64) Breakdown3C {
	var out Breakdown3C
	out.Total = real.Misses
	out.Compulsory = faCompulsory
	// Bélády anomalies can make the set-associative cache *beat* the fully
	// associative one on some traces; report zero conflicts rather than a
	// negative count, so the difference folds into capacity and the
	// components still sum to the total.
	out.Conflict = max(real.Misses-faMisses, 0)
	out.Capacity = out.Total - out.Compulsory - out.Conflict
	if out.Capacity < 0 {
		out.Capacity = 0
		out.Conflict = out.Total - out.Compulsory
	}
	return out
}
