package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	c.Store(7)
	if c.Load() != 0 {
		t.Error("nil counter must read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Load() != 0 {
		t.Error("nil gauge must read 0")
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("l2.hits").Add(10)
	r.Counter("l2.hits").Inc()
	r.Counter("l2.misses").Store(4)
	r.Gauge("attr.free").Set(32)
	if got := r.Counter("l2.hits").Load(); got != 11 {
		t.Errorf("hits = %d, want 11", got)
	}
	s := r.Snapshot()
	if s.Get("l2.hits") != 11 || s.Get("l2.misses") != 4 || s.Get("attr.free") != 32 {
		t.Errorf("snapshot %v", s)
	}
	if s.Get("absent") != 0 {
		t.Error("absent metric must read 0")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	// The registry must be race-clean under the sweep engine's concurrency:
	// many goroutines hammering overlapping names (run with -race).
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", i)).Inc()
				r.Gauge("depth").Set(int64(j))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
}

func TestSnapshotJSONSchemaStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.second").Store(2)
	r.Counter("a.first").Store(1)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("JSON output must end in a newline")
	}
	// Keys must appear sorted regardless of insertion order.
	if ia, ib := strings.Index(out, "a.first"), strings.Index(out, "b.second"); ia < 0 || ib < 0 || ia > ib {
		t.Errorf("keys not sorted: %s", out)
	}
	var back map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back["a.first"] != 1 || back["b.second"] != 2 {
		t.Errorf("round trip: %v", back)
	}
}

func TestInvariants(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.hits").Store(6)
	r.Counter("c.misses").Store(4)
	r.Counter("c.accesses").Store(10)
	r.RegisterInvariant("c.conservation", func(s Snapshot) error {
		if s.Get("c.hits")+s.Get("c.misses") != s.Get("c.accesses") {
			return fmt.Errorf("hits+misses != accesses")
		}
		return nil
	})
	if err := r.Check(); err != nil {
		t.Fatalf("invariant must hold: %v", err)
	}
	r.Counter("c.accesses").Store(11)
	err := r.Check()
	if err == nil {
		t.Fatal("violated invariant must fail Check")
	}
	if !strings.Contains(err.Error(), "c.conservation") {
		t.Errorf("violation must name the invariant: %v", err)
	}
	// Re-registering under the same name replaces, not duplicates.
	r.RegisterInvariant("c.conservation", func(Snapshot) error { return nil })
	if err := r.Check(); err != nil {
		t.Errorf("replaced invariant must pass: %v", err)
	}
	if n := len(r.InvariantNames()); n != 1 {
		t.Errorf("expected 1 invariant, got %d", n)
	}
}

func TestCheckDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.middle"} {
		n := n
		r.RegisterInvariant(n, func(Snapshot) error { return fmt.Errorf("boom") })
	}
	err := r.Check()
	if err == nil {
		t.Fatal("expected violations")
	}
	msg := err.Error()
	ia, im, iz := strings.Index(msg, "a.first"), strings.Index(msg, "m.middle"), strings.Index(msg, "z.last")
	if !(ia < im && im < iz) {
		t.Errorf("violations not in sorted order: %q", msg)
	}
}

func TestRing(t *testing.T) {
	if r := NewRing(0); r != nil {
		t.Error("NewRing(0) must return the nil no-op ring")
	}
	var nilRing *Ring
	nilRing.Record(Event{Kind: "x"}) // must not panic
	if nilRing.Events() != nil || nilRing.Total() != 0 {
		t.Error("nil ring must be empty")
	}

	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: "evict", Key: uint64(i)})
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(ev))
	}
	for i, e := range ev {
		if want := uint64(i + 2); e.Key != want || e.Seq != int64(i+2) {
			t.Errorf("event %d = key %d seq %d, want key/seq %d", i, e.Key, e.Seq, want)
		}
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Record(Event{Kind: "e"})
				_ = r.Events()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 2000 {
		t.Errorf("total = %d, want 2000", r.Total())
	}
}

// debugGet fetches path from the debug server at addr and returns the
// status code and body.
func debugGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Store(9)
	reg.Histogram("lat").Observe(100)
	addr, stop, err := ServeDebug("127.0.0.1:0", "dbg", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// On a quiescent registry /metrics is exactly what MetricsHandler
	// renders for the same namespace and registry.
	rec := httptest.NewRecorder()
	MetricsHandler("dbg", reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if code, body := debugGet(t, addr, "/metrics"); code != http.StatusOK || body != rec.Body.String() {
		t.Errorf("/metrics: code %d body %q, want %q", code, body, rec.Body.String())
	}

	// The registry is read per scrape: a counter bumped between two GETs
	// shows up in the second.
	reg.Counter("hits").Inc()
	if _, body := debugGet(t, addr, "/metrics"); !strings.Contains(body, "dbg_hits 10\n") {
		t.Errorf("/metrics after bump: %q", body)
	}
}

// TestDebugEndpoints pins the debug listener's route table: /metrics
// renders the served registry under its namespace, /debug/pprof/ answers,
// and the deleted expvar and publish-table pages stay gone.
func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Store(9)
	reg.Histogram("lat").Observe(100)
	addr, stop, err := ServeDebug("127.0.0.1:0", "dbgtest", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if code, body := debugGet(t, addr, "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "dbgtest_hits 9\n") ||
		!strings.Contains(body, "dbgtest_lat_count 1\n") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if code, _ := debugGet(t, addr, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index status %d", code)
	}
	for _, path := range []string{
		"/debug/vars",
		"/debug/events", "/debug/events?name=dbgtest.ring",
		"/debug/trace", "/debug/trace?name=dbgtest.trace",
	} {
		if code, _ := debugGet(t, addr, path); code != http.StatusNotFound {
			t.Errorf("%s answered %d, want 404", path, code)
		}
	}
}
