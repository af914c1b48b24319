package main

import (
	"reflect"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/serve"
	"tcor/internal/workload"
)

func TestFrameScenesAreSeeded(t *testing.T) {
	a, err := frameSpecs([]string{"GTr"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := frameSpecs([]string{"GTr"}, 1)
	c, _ := frameSpecs([]string{"GTr"}, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different specs")
	}
	if a[0].Frames != 1 || c[0].Seed != a[0].Seed+1 {
		t.Fatalf("specs %+v / %+v: want one frame and Spec.Seed offset by the seed", a[0], c[0])
	}
	gen := func(s workload.Spec) []geom.Primitive {
		sc, err := workload.Generate(s, geom.DefaultScreen())
		if err != nil {
			t.Fatal(err)
		}
		return sc.Frame(0).Prims
	}
	if !reflect.DeepEqual(gen(a[0]), gen(b[0])) {
		t.Error("the same spec generated different scenes")
	}
	if reflect.DeepEqual(gen(a[0]), gen(c[0])) {
		t.Error("seeds 1 and 2 generated the same scene")
	}
}

func TestRequestSequenceIsSeeded(t *testing.T) {
	hot := hotSet()
	hotKeys := map[string]bool{}
	for _, r := range hot {
		k, err := serve.CanonicalKey(r)
		if err != nil {
			t.Fatal(err)
		}
		hotKeys[k] = true
	}
	missKeys := map[string]bool{}
	differs := false
	const n = 20 * missEvery
	for k := 0; k < n; k++ {
		r1, h1, m1 := requestAt(1, k, hot)
		r1b, h1b, m1b := requestAt(1, k, hot)
		if !reflect.DeepEqual(r1, r1b) || h1 != h1b || m1 != m1b {
			t.Fatalf("request %d is not deterministic", k)
		}
		if r2, _, _ := requestAt(2, k, hot); !reflect.DeepEqual(r1, r2) {
			differs = true
		}
		key, err := serve.CanonicalKey(r1)
		if err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
		if h1 >= 0 {
			if !hotKeys[key] {
				t.Errorf("hit %d is not in the hot set", k)
			}
			continue
		}
		if hotKeys[key] || missKeys[key] {
			t.Errorf("miss %d shares its content address", k)
		}
		missKeys[key] = true
	}
	if len(missKeys) != n/missEvery {
		t.Errorf("%d misses in %d requests, want exactly one per block of %d", len(missKeys), n, missEvery)
	}
	if !differs {
		t.Error("seeds 1 and 2 gave the same request sequence")
	}
}
