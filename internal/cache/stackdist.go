package cache

import "tcor/internal/trace"

// Mattson et al.'s "Evaluation techniques for storage hierarchies" — the
// paper that proved OPT optimal (TCOR's reference [27]) — introduced *stack
// algorithms*: replacement policies whose contents at capacity C are always
// a subset of the contents at capacity C+1. For such policies one pass over
// the trace yields the miss count at EVERY capacity simultaneously, by
// recording each access's *stack distance* (its depth in the recency stack
// for LRU). This file implements the LRU stack-distance profile; it both
// accelerates fully-associative studies (Figs. 1/11) and cross-validates
// the event-driven simulator (their miss counts must agree exactly — see
// the tests).

// StackProfile is the result of a one-pass stack simulation.
type StackProfile struct {
	// Distances[d] counts accesses whose stack distance was d (0 = most
	// recently used). Infinite distances (first touches) are in Cold.
	Distances []int64
	// Cold counts compulsory (first-touch) accesses.
	Cold int64
	// Total is the number of accesses processed.
	Total int64
}

// LRUStackDistances computes the LRU stack-distance profile of a trace in
// one pass, in O(n log n) (Bennett and Kruskal's formulation, as Olken
// implemented it). An access's stack distance is the number of distinct
// keys touched since its key's previous access. A Fenwick tree over access
// times marks each live key's latest access, so that count is the number of
// live keys minus the marks up to the previous access.
func LRUStackDistances(tr trace.Trace) StackProfile {
	p := StackProfile{Total: int64(len(tr))}
	marks := make(fenwick, len(tr)+1)
	last := make(map[trace.Key]int, 1024) // key -> time of its latest access
	live := 0
	for t, acc := range tr {
		if prev, ok := last[acc.Key]; ok {
			d := live - marks.prefix(prev)
			for len(p.Distances) <= d {
				p.Distances = append(p.Distances, 0)
			}
			p.Distances[d]++
			marks.add(prev, -1)
		} else {
			p.Cold++
			live++
		}
		marks.add(t, 1)
		last[acc.Key] = t
	}
	return p
}

// fenwick is a binary indexed tree over access times 0..len-2 (slot 0 is
// unused, so time t lives at index t+1).
type fenwick []int32

// add adds v to the count at time t.
func (f fenwick) add(t int, v int32) {
	for i := t + 1; i < len(f); i += i & -i {
		f[i] += v
	}
}

// prefix returns the sum of the counts at times 0..t.
func (f fenwick) prefix(t int) int {
	var s int32
	for i := t + 1; i > 0; i -= i & -i {
		s += f[i]
	}
	return int(s)
}

// MissesAt returns the number of misses a fully associative LRU cache with
// the given capacity (in lines) takes on the profiled trace: cold misses
// plus every access whose stack distance is >= capacity.
func (p StackProfile) MissesAt(capacity int) int64 {
	misses := p.Cold
	for d := capacity; d < len(p.Distances); d++ {
		misses += p.Distances[d]
	}
	return misses
}

// MissRatioAt returns MissesAt as a ratio of total accesses.
func (p StackProfile) MissRatioAt(capacity int) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.MissesAt(capacity)) / float64(p.Total)
}

// Curve evaluates the miss ratio at each capacity, in one call.
func (p StackProfile) Curve(capacities []int) []float64 {
	out := make([]float64, len(capacities))
	for i, c := range capacities {
		out[i] = p.MissRatioAt(c)
	}
	return out
}
