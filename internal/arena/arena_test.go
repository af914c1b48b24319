package arena

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tcor/internal/cache"
	"tcor/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testRunner(benchmarks ...string) *experiments.Runner {
	r := experiments.NewRunner()
	r.Frames = 1
	if len(benchmarks) > 0 {
		r.Benchmarks = benchmarks
	}
	return r
}

func TestNormalize(t *testing.T) {
	got, err := Normalize(Options{Policies: []string{"arc", "s3fifo", "ARC"}, Benchmarks: []string{"Mze", "CCS"}})
	if err != nil {
		t.Fatal(err)
	}
	wantPol := []string{"ARC", "S3-FIFO", "LRU", "OPT"}
	if len(got.Policies) != len(wantPol) {
		t.Fatalf("policies = %v, want %v", got.Policies, wantPol)
	}
	for i := range wantPol {
		if got.Policies[i] != wantPol[i] {
			t.Fatalf("policies = %v, want %v", got.Policies, wantPol)
		}
	}
	// Benchmarks normalize to suite order: CCS precedes Mze.
	if got.Benchmarks[0] != "CCS" || got.Benchmarks[1] != "Mze" {
		t.Errorf("benchmarks = %v, want suite order [CCS Mze]", got.Benchmarks)
	}
	if got.SizeKB != DefaultSizeKB {
		t.Errorf("sizeKB default = %g", got.SizeKB)
	}

	if _, err := Normalize(Options{Policies: []string{"nope"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Normalize(Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Normalize(Options{SizeKB: 1 << 20}); err == nil {
		t.Error("absurd size accepted")
	}
	if _, err := Normalize(Options{Policies: []string{"PLRU"}}); err == nil {
		t.Error("PLRU without power-of-two ways accepted")
	}
	if _, err := Normalize(Options{Policies: []string{"PLRU"}, Ways: 4}); err != nil {
		t.Errorf("PLRU with ways=4 rejected: %v", err)
	}
}

func TestDefaultRosterExcludesPLRUOnly(t *testing.T) {
	names := cache.PolicyNames()
	roster := DefaultRoster()
	if len(roster) != len(names)-1 {
		t.Fatalf("roster %d entries, registry %d", len(roster), len(names))
	}
	for _, p := range roster {
		if p == "PLRU" {
			t.Fatal("PLRU in default roster")
		}
	}
}

// TestRaceByteIdenticalAcrossParallelism is the tentpole's reproducibility
// claim at the engine level: the canonical encoding must not depend on the
// sweep's parallelism or on memo warm-up state.
func TestRaceByteIdenticalAcrossParallelism(t *testing.T) {
	opts := Options{
		Policies:     []string{"LRU", "OPT", "ARC", "Learned"},
		Benchmarks:   []string{"CCS", "Mze"},
		SizeKB:       32,
		Curves:       true,
		CurveSizesKB: []float64{24, 48},
	}
	var first []byte
	for _, par := range []int{1, 4, 8} {
		r := testRunner("CCS", "Mze") // fresh runner: no memo reuse across levels
		o := opts
		o.Parallel = par
		rep, err := Race(context.Background(), r, o)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		enc, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = enc
		} else if !bytes.Equal(first, enc) {
			t.Fatalf("parallel=%d: report bytes diverge", par)
		}
	}
	if len(first) == 0 || first[len(first)-1] != '\n' {
		t.Fatal("canonical encoding must end in newline")
	}
}

// TestLRUFastPathMatchesSimulator cross-validates the arena's stack-profile
// fast path for fully-associative LRU rows against the event-driven
// simulator it replaces.
func TestLRUFastPathMatchesSimulator(t *testing.T) {
	r := testRunner("CCS")
	rep, err := Race(context.Background(), r, Options{
		Policies:   []string{"LRU", "OPT"},
		Benchmarks: []string{"CCS"},
		SizeKB:     32,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.AttributeTrace("CCS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.CacheCfgFor(experiments.CapacityPrims(32), 0)
	st, err := cache.Simulate(cfg, cache.NewLRU(), tr)
	if err != nil {
		t.Fatal(err)
	}
	var lruRow *Row
	for i := range rep.PerBench[0].Rows {
		if rep.PerBench[0].Rows[i].Policy == "LRU" {
			lruRow = &rep.PerBench[0].Rows[i]
		}
	}
	if lruRow == nil {
		t.Fatal("no LRU row")
	}
	c3, err := cache.Classify3C(cfg, cache.NewLRU(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if lruRow.Misses != st.Misses || lruRow.Compulsory != c3.Compulsory || lruRow.Capacity != c3.Capacity {
		t.Errorf("fast path diverges from simulator: row %+v, sim misses=%d, 3C %+v",
			lruRow, st.Misses, c3)
	}
	if lruRow.Conflict != 0 {
		t.Errorf("fully-associative LRU reported %d conflict misses", lruRow.Conflict)
	}
	if sum := lruRow.Compulsory + lruRow.Capacity + lruRow.Conflict; sum != lruRow.Misses {
		t.Errorf("3C components sum to %d, want %d", sum, lruRow.Misses)
	}
}

// TestRaceRankingInvariants checks structural properties on a real race:
// OPT ranks first (it is optimal), every benchmark's OPT row lower-bounds
// the others, components sum to totals, and winners exclude OPT.
func TestRaceRankingInvariants(t *testing.T) {
	r := testRunner("CCS", "SoD")
	rep, err := Race(context.Background(), r, Options{
		Policies:   []string{"LRU", "FIFO", "OPT", "SRRIP"},
		Benchmarks: []string{"CCS", "SoD"},
		SizeKB:     24,
		Ways:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranking[0].Policy != "OPT" {
		t.Errorf("OPT not ranked first: %+v", rep.Ranking)
	}
	if opt := rep.StandingFor("OPT"); opt == nil || opt.GapClosed < 0.999 {
		t.Errorf("OPT gapClosed should be 1: %+v", opt)
	}
	if lru := rep.StandingFor("LRU"); lru == nil || lru.GapToOPT < 0 {
		t.Errorf("LRU cannot beat OPT: %+v", lru)
	}
	for _, br := range rep.PerBench {
		if br.Winner == "OPT" || br.Winner == "" {
			t.Errorf("%s: winner %q must be an online policy", br.Benchmark, br.Winner)
		}
		var optMisses int64 = -1
		for _, row := range br.Rows {
			if row.Policy == "OPT" {
				optMisses = row.Misses
			}
			if sum := row.Compulsory + row.Capacity + row.Conflict; sum != row.Misses {
				t.Errorf("%s/%s: 3C sums to %d, want %d", br.Benchmark, row.Policy, sum, row.Misses)
			}
		}
		for _, row := range br.Rows {
			if row.Misses < optMisses {
				t.Errorf("%s: %s misses %d beat OPT's %d", br.Benchmark, row.Policy, row.Misses, optMisses)
			}
		}
		if br.Reuse.Cold == 0 {
			t.Errorf("%s: reuse summary missing cold count", br.Benchmark)
		}
	}
}

// TestLearnedBetweenLRUAndOPTOnSuite is the acceptance criterion: across
// the full Table II suite at the paper's design point, the learned policy
// must land in the [OPT, LRU] miss band on at least 7 of the 10 benchmarks.
func TestLearnedBetweenLRUAndOPTOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite race")
	}
	r := testRunner()
	rep, err := Race(context.Background(), r, Options{
		Policies: []string{"LRU", "OPT", "Learned"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerBench) != 10 {
		t.Fatalf("expected 10 benchmarks, got %d", len(rep.PerBench))
	}
	between := 0
	for _, br := range rep.PerBench {
		var lru, opt, learned int64 = -1, -1, -1
		for _, row := range br.Rows {
			switch row.Policy {
			case "LRU":
				lru = row.Misses
			case "OPT":
				opt = row.Misses
			case "Learned":
				learned = row.Misses
			}
		}
		if learned < opt {
			t.Errorf("%s: Learned %d beats OPT %d — simulator bug", br.Benchmark, learned, opt)
		}
		if opt <= learned && learned <= lru {
			between++
		} else {
			t.Logf("%s: outside band (OPT %d, Learned %d, LRU %d)", br.Benchmark, opt, learned, lru)
		}
	}
	if between < 7 {
		t.Errorf("Learned lands between LRU and OPT on only %d/10 benchmarks, need >= 7", between)
	}
}

// TestRaceResumesFromCheckpoint kills nothing but proves the journal path:
// a second race over a fresh runner sharing the journal restores every cell
// instead of recomputing, with byte-identical output.
func TestRaceResumesFromCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arena.ckpt")
	opts := Options{
		Policies:   []string{"LRU", "OPT", "S3-FIFO"},
		Benchmarks: []string{"CCS"},
		SizeKB:     16,
	}

	r1 := testRunner("CCS")
	if _, err := r1.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	rep1, err := Race(context.Background(), r1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Checkpoint.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := testRunner("CCS")
	restored, err := r2.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 { // one journaled cell per (benchmark, policy)
		t.Fatalf("restored %d cells, want 3", restored)
	}
	rep2, err := Race(context.Background(), r2, opts)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := rep1.Encode()
	b2, _ := rep2.Encode()
	if !bytes.Equal(b1, b2) {
		t.Error("resumed race diverged from original")
	}
	snap := r2.Metrics().Snapshot()
	if got := snap.Get("checkpoint.restored"); got != 3 {
		t.Errorf("checkpoint.restored = %d, want 3", got)
	}
}

// TestGoldenReport pins the CI arena roster's ranked report. Regenerate
// with: go test ./internal/arena/ -run TestGoldenReport -update
func TestGoldenReport(t *testing.T) {
	r := testRunner("CCS", "Mze")
	rep, err := Race(context.Background(), r, Options{
		Policies:   []string{"LRU", "OPT", "ARC", "Learned"},
		Benchmarks: []string{"CCS", "Mze"},
		SizeKB:     32,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_report.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ranked report drifted from golden file (regenerate with -update if intended)\ngot:  %s\nwant: %s", got, want)
	}
}
