package cache

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tcor/internal/trace"
)

func TestLRUStackDistancesSimple(t *testing.T) {
	// Trace: A B A C B A
	// A: cold; B: cold; A: dist 1; C: cold; B: dist 2; A: dist 2.
	tr := reads(1, 2, 1, 3, 2, 1)
	p := LRUStackDistances(tr)
	if p.Cold != 3 {
		t.Errorf("cold = %d, want 3", p.Cold)
	}
	if p.Distances[1] != 1 {
		t.Errorf("dist-1 count = %d, want 1", p.Distances[1])
	}
	if p.Distances[2] != 2 {
		t.Errorf("dist-2 count = %d, want 2", p.Distances[2])
	}
	// Capacity 2: misses = 3 cold + 2 at distance >= 2 = 5.
	if got := p.MissesAt(2); got != 5 {
		t.Errorf("MissesAt(2) = %d, want 5", got)
	}
	// Capacity 3: everything with distance <= 2 hits: misses = 3.
	if got := p.MissesAt(3); got != 3 {
		t.Errorf("MissesAt(3) = %d, want 3", got)
	}
}

// The inclusion cross-check: the one-pass profile must agree EXACTLY with
// the event-driven fully-associative LRU simulator at every capacity.
func TestStackProfileMatchesSimulatorExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr := make(trace.Trace, 20000)
	for i := range tr {
		// Zipf-ish mixture: hot keys plus a long tail.
		if rng.Intn(3) == 0 {
			tr[i].Key = trace.Key(rng.Intn(2000))
		} else {
			tr[i].Key = trace.Key(rng.Intn(40))
		}
	}
	trace.AnnotateNextUse(tr)
	p := LRUStackDistances(tr)
	for _, capacity := range []int{1, 2, 3, 7, 16, 33, 64, 200, 1000} {
		st, err := Simulate(Config{Lines: capacity, WriteAllocate: true}, NewLRU(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.MissesAt(capacity); got != st.Misses {
			t.Errorf("capacity %d: stack profile %d misses, simulator %d",
				capacity, got, st.Misses)
		}
	}
}

// Mattson inclusion: the miss curve is non-increasing in capacity.
func TestStackProfileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := make(trace.Trace, 5000)
	for i := range tr {
		tr[i].Key = trace.Key(rng.Intn(300))
	}
	p := LRUStackDistances(tr)
	prev := p.MissesAt(1)
	for c := 2; c < 400; c++ {
		cur := p.MissesAt(c)
		if cur > prev {
			t.Fatalf("misses increased from capacity %d to %d", c-1, c)
		}
		prev = cur
	}
	// At capacity >= working set only cold misses remain.
	if p.MissesAt(300) != p.Cold {
		t.Errorf("misses at full capacity = %d, want cold %d", p.MissesAt(300), p.Cold)
	}
}

func TestStackProfileHelpers(t *testing.T) {
	tr := reads(1, 2, 1, 3, 2, 1)
	p := LRUStackDistances(tr)
	curve := p.Curve([]int{1, 2, 3})
	if len(curve) != 3 || curve[0] < curve[1] || curve[1] < curve[2] {
		t.Errorf("curve = %v", curve)
	}
	if p.MissRatioAt(3) != 0.5 {
		t.Errorf("ratio at 3 = %v", p.MissRatioAt(3))
	}
	var zero StackProfile
	if zero.MissRatioAt(4) != 0 {
		t.Error("empty profile ratio")
	}
}

// moveToFrontStackDistances is the reference LRUStackDistances is checked
// against: the recency stack kept as a slice with move-to-front, each
// access's distance read off as its key's depth in the stack. O(n·d̄), and
// simple enough to trust.
func moveToFrontStackDistances(tr trace.Trace) StackProfile {
	p := StackProfile{Total: int64(len(tr))}
	var stack []trace.Key // stack[0] is the most recently used key
	for _, acc := range tr {
		d := slices.Index(stack, acc.Key)
		if d < 0 {
			p.Cold++
			stack = append(stack, 0)
			d = len(stack) - 1
		} else {
			for len(p.Distances) <= d {
				p.Distances = append(p.Distances, 0)
			}
			p.Distances[d]++
		}
		copy(stack[1:d+1], stack[:d])
		stack[0] = acc.Key
	}
	return p
}

// FuzzLRUStackDistancesMatchesMoveToFront is the differential test of the
// Fenwick-tree profile against the move-to-front stack on fuzzed traces:
// the first byte sets the key count (1 to 4081), then each pair of bytes
// is one access. The random seeds span few keys (deep re-use) to many
// (mostly cold), at lengths around the tree's power-of-two boundaries.
func FuzzLRUStackDistancesMatchesMoveToFront(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0})
	f.Add([]byte{3, 1, 0, 2, 0, 1, 0, 3, 0, 2, 0, 1, 0})
	rng := rand.New(rand.NewSource(11))
	for _, keyByte := range []byte{1, 4, 64, 255} {
		for _, n := range []int{255, 256, 257, 4096} {
			seed := make([]byte, 1+2*n)
			rng.Read(seed)
			seed[0] = keyByte
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		keys := 1 + int(data[0])*16
		var tr trace.Trace
		for b := data[1:]; len(b) >= 2; b = b[2:] {
			tr = append(tr, trace.Access{Key: trace.Key((int(b[0]) | int(b[1])<<8) % keys)})
		}
		if got, want := LRUStackDistances(tr), moveToFrontStackDistances(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d keys, %d accesses: profile %+v, move-to-front %+v", keys, len(tr), got, want)
		}
	})
}
