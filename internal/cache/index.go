package cache

import (
	"reflect"

	"tcor/internal/trace"
)

// IndexFunc maps a key to a set index in [0, sets).
type IndexFunc func(key trace.Key, sets int) int

// ModuloIndex is the conventional set mapping: the key modulo the set count
// (the low-order bits when the set count is a power of two).
func ModuloIndex(key trace.Key, sets int) int {
	return int(key % trace.Key(sets))
}

// XORIndex implements an XOR-based placement function (González et al. [12],
// Topham & González [36]): the set is the XOR of consecutive bit fields of
// the key. Folding several tag fields into the index spreads
// power-of-two-strided data across all sets, which is exactly the conflict
// pattern the baseline PB-Lists layout suffers from (paper §III-B).
//
// Bit folding only works for power-of-two set counts; Config.Validate
// rejects XOR-indexed geometries whose set count is not. Called directly
// with a non-power-of-two count, it degrades to a multiplicative hash.
func XORIndex(key trace.Key, sets int) int {
	if sets <= 1 {
		// A single set leaves no index bits to fold (the shift below would
		// be zero and the fold loop would never terminate).
		return 0
	}
	if sets&(sets-1) != 0 {
		// Bit folding needs a power-of-two set count; degrade to a
		// multiplicative hash otherwise.
		return int((key * 2654435761) % trace.Key(sets))
	}
	mask := trace.Key(sets - 1)
	shift := uint(0)
	for s := sets; s > 1; s >>= 1 {
		shift++
	}
	x := trace.Key(0)
	for k := key; k != 0; k >>= shift {
		x ^= k & mask
	}
	return int(x)
}

// sameIndex reports whether f and g are the same index function, so
// Config.Validate can reject geometries whose set count defeats XORIndex's
// bit folding and NewFlatLRU can insist on ModuloIndex. Function values are
// not comparable in Go; identity via the code pointer is the standard
// workaround.
func sameIndex(f, g IndexFunc) bool {
	return f != nil && reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer()
}
