package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcor/internal/stats"
)

func TestParseTenantsValid(t *testing.T) {
	ts, err := ParseTenants([]byte(`{
		"key-alpha": {"name": "alpha", "weight": 3, "maxInflight": 2, "maxQueued": 8, "cacheShare": 0.5},
		"key-beta":  {"name": "beta",  "weight": 1},
		"*":         {"name": "default", "weight": 4}
	}`))
	if err != nil {
		t.Fatalf("ParseTenants: %v", err)
	}
	if got := ts.TotalWeight(); got != 8 {
		t.Fatalf("total weight = %d, want 8", got)
	}
	alpha, err := ts.Resolve("key-alpha")
	if err != nil || alpha.Name != "alpha" {
		t.Fatalf("Resolve(key-alpha) = %v, %v", alpha, err)
	}
	if alpha.CacheShare != 0.5 || alpha.MaxInflight != 2 || alpha.MaxQueued != 8 {
		t.Fatalf("alpha limits = %+v", alpha)
	}
	beta, _ := ts.Resolve("key-beta")
	if want := 1.0 / 8.0; beta.CacheShare != want {
		t.Fatalf("unset cacheShare = %g, want weight share %g", beta.CacheShare, want)
	}
	if def, err := ts.Resolve(""); err != nil || def.Name != DefaultTenantName {
		t.Fatalf("anonymous resolve = %v, %v", def, err)
	}
	if _, err := ts.Resolve("key-nope"); err == nil {
		t.Fatal("unknown credential resolved")
	}
	names := make([]string, 0, 3)
	for _, tn := range ts.Tenants() {
		names = append(names, tn.Name)
	}
	if strings.Join(names, ",") != "alpha,beta,default" {
		t.Fatalf("roster order = %v, want name-sorted", names)
	}
}

// TestParseTenantsRejects pins the hard-error contract: a misconfigured
// roster refuses to load — nothing is silently clamped or dropped.
func TestParseTenantsRejects(t *testing.T) {
	cases := []struct {
		name, cfg, wantIn string
	}{
		{"not json", `hello`, "tenants config"},
		{"not an object", `[1]`, "tenants config"},
		{"trailing garbage", `{"k":{"name":"a","weight":1}} {}`, "trailing"},
		{"duplicate key", `{"k":{"name":"a","weight":1},"k":{"name":"b","weight":1}}`, "duplicate"},
		{"duplicate name", `{"k1":{"name":"a","weight":1},"k2":{"name":"a","weight":1}}`, "claimed by both"},
		{"zero weight", `{"k":{"name":"a","weight":0}}`, "weight"},
		{"negative weight", `{"k":{"name":"a","weight":-2}}`, "weight"},
		{"absurd weight", `{"k":{"name":"a","weight":1000001}}`, "weight"},
		{"negative inflight", `{"k":{"name":"a","weight":1,"maxInflight":-1}}`, "maxInflight"},
		{"absurd inflight", `{"k":{"name":"a","weight":1,"maxInflight":1000001}}`, "maxInflight"},
		{"negative queued", `{"k":{"name":"a","weight":1,"maxQueued":-1}}`, "maxQueued"},
		{"share over one", `{"k":{"name":"a","weight":1,"cacheShare":1.5}}`, "cacheShare"},
		{"negative share", `{"k":{"name":"a","weight":1,"cacheShare":-0.1}}`, "cacheShare"},
		{"missing name", `{"k":{"weight":1}}`, "name"},
		{"bad name", `{"k":{"name":"Not Valid","weight":1}}`, "name"},
		{"reserved name", `{"k":{"name":"default","weight":1}}`, "reserved"},
		{"anon not default", `{"*":{"name":"anon","weight":1}}`, "default"},
		{"unknown field", `{"k":{"name":"a","weight":1,"turbo":true}}`, "unknown field"},
		{"empty key", `{"":{"name":"a","weight":1}}`, "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTenants([]byte(tc.cfg))
			if err == nil {
				t.Fatalf("config %s parsed", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.wantIn) {
				t.Fatalf("error %q does not mention %q", err, tc.wantIn)
			}
		})
	}
}

// FuzzParseTenants hammers the config parser: it must never panic, and an
// accepted roster must satisfy every invariant the server later relies on
// (resolvable keys, unique valid names, in-range weights and shares).
func FuzzParseTenants(f *testing.F) {
	f.Add([]byte(`{"k":{"name":"a","weight":1}}`))
	f.Add([]byte(`{"*":{"name":"default","weight":2,"cacheShare":0.25}}`))
	f.Add([]byte(`{"k":{"name":"a","weight":1},"k":{"name":"b","weight":1}}`))
	f.Add([]byte(`{"k":{"name":"a","weight":-1}}`))
	f.Add([]byte(`{"k":{"name":"a","weight":1000000000000}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ParseTenants(data)
		if err != nil {
			return
		}
		var total int64
		seen := map[string]bool{}
		for _, tn := range ts.Tenants() {
			if tn.Weight < 1 || tn.Weight > maxTenantWeight {
				t.Fatalf("accepted weight %d", tn.Weight)
			}
			if tn.CacheShare <= 0 || tn.CacheShare > 1 {
				t.Fatalf("accepted cacheShare %g", tn.CacheShare)
			}
			if tn.MaxInflight < 0 || tn.MaxQueued < 0 {
				t.Fatalf("accepted negative limits %+v", tn)
			}
			if tn.Name != DefaultTenantName && !tenantNameRE.MatchString(tn.Name) {
				t.Fatalf("accepted name %q", tn.Name)
			}
			if seen[tn.Name] {
				t.Fatalf("duplicate name %q survived", tn.Name)
			}
			seen[tn.Name] = true
			if tn.Key != AnonKey {
				got, err := ts.Resolve(tn.Key)
				if err != nil || got != tn {
					t.Fatalf("roster key %q does not resolve to its tenant", tn.Key)
				}
			}
			total += int64(tn.Weight)
		}
		if ts.TotalWeight() != total {
			t.Fatalf("TotalWeight %d != sum %d", ts.TotalWeight(), total)
		}
		if ts.Default() == nil {
			t.Fatal("no default tenant")
		}
	})
}

func testTenants(t *testing.T) *TenantSet {
	t.Helper()
	ts, err := ParseTenants([]byte(`{
		"key-alpha": {"name": "alpha", "weight": 1, "cacheShare": 0.5},
		"key-beta":  {"name": "beta",  "weight": 1, "cacheShare": 0.5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// tenantHeaderReq drives one request with a tenant credential header.
func tenantHeaderReq(h http.Handler, method, path, body, key string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if key != "" {
		req.Header.Set(TenantHeader, key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestUnknownTenantRejected(t *testing.T) {
	s := NewServer(Options{Tenants: testTenants(t)})
	h := s.Handler()
	rec := tenantHeaderReq(h, http.MethodPost, "/v1/simulate", `{"benchmark":"CCS"}`, "key-nope")
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("unknown tenant status = %d, want 401 (body %s)", rec.Code, rec.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "unknown_tenant" {
		t.Fatalf("error envelope = %s", rec.Body)
	}
	if got := s.Registry().Snapshot().Get("serve.rejected.unknownTenant"); got != 1 {
		t.Fatalf("serve.rejected.unknownTenant = %d, want 1", got)
	}
	// The rejection must not count against any tenant's request meter.
	for _, name := range []string{"alpha", "beta"} {
		if got := s.Registry().Snapshot().Get("serve.tenant." + name + ".requests"); got != 0 {
			t.Fatalf("tenant %s charged %d requests for a 401", name, got)
		}
	}
}

func TestTenantCredentialSources(t *testing.T) {
	s := NewServer(Options{Tenants: testTenants(t)})
	h := s.Handler()

	if rec := tenantHeaderReq(h, http.MethodGet, "/v1/version", "", "key-alpha"); rec.Code != 200 {
		t.Fatalf("header credential: %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/version", nil)
	req.Header.Set("Authorization", "Bearer key-beta")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("bearer credential: %d", rec.Code)
	}
	if rec := getPath(h, "/v1/version"); rec.Code != 200 {
		t.Fatalf("anonymous: %d", rec.Code)
	}

	snap := s.Registry().Snapshot()
	for name, want := range map[string]int64{"alpha": 1, "beta": 1, "default": 1} {
		if got := snap.Get("serve.tenant." + name + ".requests"); got != want {
			t.Fatalf("serve.tenant.%s.requests = %d, want %d", name, got, want)
		}
	}
}

// TestPerTenantCacheEviction pins proportional-share eviction: when the
// cache is full, the victim is the coldest entry of a tenant over its share,
// not the globally coldest entry — a heavy tenant cannot wash out a light
// one's working set.
func TestPerTenantCacheEviction(t *testing.T) {
	ts := testTenants(t)
	reg := stats.NewRegistry()
	c := newResultCache(4, ts, reg, "serve.cache")

	alpha, _ := ts.Resolve("key-alpha")
	beta, _ := ts.Resolve("key-beta")
	ctxA := contextWithTenant(context.Background(), alpha)
	ctxB := contextWithTenant(context.Background(), beta)

	fill := func(ctx context.Context, key string) {
		t.Helper()
		_, _, err := c.get(ctx, key, func() (cached, error) {
			return cached{body: []byte("{}\n")}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Beta fills its share first (coldest entries overall), then alpha
	// fills its own and goes one over.
	fill(ctxB, "b1")
	fill(ctxB, "b2")
	fill(ctxA, "a1")
	fill(ctxA, "a2")
	fill(ctxA, "a3") // alpha now over its 2-entry share; b1 is globally coldest

	if _, ok := c.peek("b1"); !ok {
		t.Fatal("beta's cold entry was evicted by alpha's overflow")
	}
	if _, ok := c.peek("a1"); ok {
		t.Fatal("alpha's own coldest entry survived its overflow")
	}
	snap := reg.Snapshot()
	if got := snap.Get("serve.cache.tenant.alpha.evictions"); got != 1 {
		t.Fatalf("alpha evictions = %d, want 1", got)
	}
	if got := snap.Get("serve.cache.tenant.alpha.size"); got != 2 {
		t.Fatalf("alpha charge = %d, want 2", got)
	}
	if got := snap.Get("serve.cache.tenant.beta.size"); got != 2 {
		t.Fatalf("beta charge = %d, want 2", got)
	}
	if err := reg.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	// Beta overflowing its own share evicts beta's coldest entry. (The
	// peeks above promoted b1 to the hot end, so the victim is b2.)
	fill(ctxB, "b3")
	if _, ok := c.peek("b2"); ok {
		t.Fatal("beta's overflow did not evict beta's own coldest entry")
	}
	if _, ok := c.peek("b1"); !ok {
		t.Fatal("beta's hot entry went missing")
	}
}
