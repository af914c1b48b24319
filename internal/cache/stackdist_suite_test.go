package cache_test

import (
	"reflect"
	"testing"

	"tcor/internal/cache"
	"tcor/internal/experiments"
	"tcor/internal/workload"
)

// TestLRUStackDistancesSuiteMatchesMoveToFront pins the profile behind
// Figs. 1, 11 and 12 and every arena cell's 3C reference: on each suite
// benchmark's attribute trace it equals the move-to-front reference.
func TestLRUStackDistancesSuiteMatchesMoveToFront(t *testing.T) {
	r := experiments.NewRunner()
	for _, alias := range workload.Aliases() {
		tr, err := r.AttributeTrace(alias)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cache.LRUStackDistances(tr), cache.MoveToFrontStackDistances(tr); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (%d accesses): profile differs from move-to-front", alias, len(tr))
		}
	}
}
