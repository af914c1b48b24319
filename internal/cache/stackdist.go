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
// one pass. The implementation keeps the recency stack as a slice with
// move-to-front — O(n·d̄) where d̄ is the mean stack depth, which for cache
// studies (d̄ bounded by the working set) is fast enough and simple enough
// to trust as an oracle.
func LRUStackDistances(tr trace.Trace) StackProfile {
	p := StackProfile{Total: int64(len(tr))}
	stack := make([]trace.Key, 0, 1024)
	pos := make(map[trace.Key]int, 1024) // key -> index in stack (0 = MRU)

	for _, acc := range tr {
		if idx, ok := pos[acc.Key]; ok {
			// Distance is the current depth.
			for len(p.Distances) <= idx {
				p.Distances = append(p.Distances, 0)
			}
			p.Distances[idx]++
			// Move to front.
			copy(stack[1:idx+1], stack[:idx])
			stack[0] = acc.Key
			for i := 0; i <= idx; i++ {
				pos[stack[i]] = i
			}
		} else {
			p.Cold++
			stack = append(stack, 0)
			copy(stack[1:], stack)
			stack[0] = acc.Key
			for i := range stack {
				pos[stack[i]] = i
			}
		}
	}
	return p
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
