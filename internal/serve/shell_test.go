package serve_test

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"tcor/internal/cluster"
	"tcor/internal/serve"
)

// TestRequestIDMintedAndEchoed runs against both tiers: the shard daemon
// and the cluster gateway mint, honor and bound request IDs through the
// one request shell.
func TestRequestIDMintedAndEchoed(t *testing.T) {
	// The gateway answers /healthz itself; its shard is never dialed.
	g, err := cluster.NewGateway(cluster.Options{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name string
		h    http.Handler
	}{
		{"shard", serve.NewServer(serve.Options{}).Handler()},
		{"gateway", g.Handler()},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			h := tier.h

			// No inbound ID: the server mints a 16-hex-char one.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			minted := rec.Header().Get(serve.RequestIDHeader)
			if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
				t.Errorf("minted ID %q is not 16 hex chars", minted)
			}

			// A client-supplied ID is honored and echoed verbatim.
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			req.Header.Set(serve.RequestIDHeader, "my-correlation-id")
			rec2 := httptest.NewRecorder()
			h.ServeHTTP(rec2, req)
			if got := rec2.Header().Get(serve.RequestIDHeader); got != "my-correlation-id" {
				t.Errorf("echoed ID = %q, want the inbound one", got)
			}

			// An oversized ID is replaced, not reflected.
			req3 := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			long := strings.Repeat("x", serve.MaxRequestIDLen+1)
			req3.Header.Set(serve.RequestIDHeader, long)
			rec3 := httptest.NewRecorder()
			h.ServeHTTP(rec3, req3)
			if got := rec3.Header().Get(serve.RequestIDHeader); got == long || got == "" {
				t.Errorf("oversized inbound ID must be replaced with a minted one, got %q", got)
			}
		})
	}
}
