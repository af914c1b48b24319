package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestArenaValidation(t *testing.T) {
	s := NewServer(Options{})
	h := s.Handler()
	cases := []struct {
		name, body string
		wantStatus int
		wantIn     string
	}{
		{"unknown policy", `{"policies":["nope"]}`, 400, "unknown policy"},
		{"unknown benchmark", `{"benchmarks":["nope"]}`, 400, "unknown benchmark"},
		{"absurd size", `{"sizeKB":1048576}`, 400, "out of range"},
		{"plru without pow2 ways", `{"policies":["PLRU"]}`, 400, "power-of-two"},
		{"negative timeout", `{"timeoutMs":-1}`, 400, "timeoutMs"},
		{"unknown field", `{"turbo":true}`, 400, "unknown field"},
		{"oversized curve grid", func() string {
			sizes := make([]float64, maxArenaCurveSizes+1)
			for i := range sizes {
				sizes[i] = float64(i + 1)
			}
			b, _ := json.Marshal(ArenaRequest{Curves: true, CurveSizesKB: sizes})
			return string(b)
		}(), 400, "server limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(h, "/v1/arena", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body)
			}
			if !bytes.Contains(rec.Body.Bytes(), []byte(tc.wantIn)) {
				t.Errorf("body %s does not mention %q", rec.Body, tc.wantIn)
			}
		})
	}
	if rec := getPath(h, "/v1/arena"); rec.Code != 405 {
		t.Errorf("GET /v1/arena = %d, want 405", rec.Code)
	}
}

func TestArenaKeyNormalizes(t *testing.T) {
	// Two phrasings of the same race must share one content address: case
	// and aliases canonicalize, anchors append, defaults materialize.
	_, k1, err := ArenaKey(ArenaRequest{Policies: []string{"arc", "lru"}, Benchmarks: []string{"CCS"}})
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := ArenaKey(ArenaRequest{Policies: []string{"ARC", "LRU", "opt"}, Benchmarks: []string{"CCS"}, SizeKB: 48})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equivalent requests got distinct keys %s vs %s", k1, k2)
	}
	_, k3, err := ArenaKey(ArenaRequest{Policies: []string{"ARC"}, Benchmarks: []string{"CCS"}, SizeKB: 32})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different capacities share a key")
	}
}
