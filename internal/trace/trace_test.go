package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAnnotateNextUseSimple(t *testing.T) {
	tr := Trace{
		{Key: 1}, // next use at 2
		{Key: 2}, // next use at 3
		{Key: 1}, // never again
		{Key: 2}, // never again
	}
	AnnotateNextUse(tr)
	want := []int64{2, 3, Never, Never}
	for i, w := range want {
		if tr[i].NextUse != w {
			t.Errorf("acc %d: NextUse = %d, want %d", i, tr[i].NextUse, w)
		}
	}
}

func TestAnnotateNextUseEmpty(t *testing.T) {
	AnnotateNextUse(nil) // must not panic
	tr := Trace{}
	AnnotateNextUse(tr)
}

// Property: for every access i, NextUse is the smallest j > i with the same
// key, or Never.
func TestAnnotateNextUseProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := make(Trace, int(n))
		for i := range tr {
			tr[i].Key = Key(rng.Intn(8))
		}
		AnnotateNextUse(tr)
		for i := range tr {
			want := Never
			for j := i + 1; j < len(tr); j++ {
				if tr[j].Key == tr[i].Key {
					want = int64(j)
					break
				}
			}
			if tr[i].NextUse != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCounts(t *testing.T) {
	tr := Trace{
		{Key: 1, Write: true},
		{Key: 2},
		{Key: 1},
		{Key: 3, Write: true},
	}
	if got := UniqueKeys(tr); got != 3 {
		t.Errorf("UniqueKeys = %d, want 3", got)
	}
	if got := Reads(tr); got != 2 {
		t.Errorf("Reads = %d, want 2", got)
	}
	if got := Writes(tr); got != 2 {
		t.Errorf("Writes = %d, want 2", got)
	}
}
