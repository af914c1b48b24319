package gpu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/tiling"
	"tcor/internal/workload"
)

// invariantCase is one full-system run the invariant test checks.
type invariantCase struct {
	name string
	sc   *workload.Scene
	cfg  Config
}

// TestCheckInvariantsAllConfigs runs every full-system configuration and
// demands that all per-level and cross-level identities hold — the
// programmatic form of the conservation tests, exercised through the
// public stats surface that cmd/tcorsim's -check flag uses.
func TestCheckInvariantsAllConfigs(t *testing.T) {
	sc := smallScene(t, "CCS", 2)
	checkCases(t, []invariantCase{
		{"baseline64", sc, Baseline(64 * 1024)},
		{"tcor64", sc, TCOR(64 * 1024)},
		{"nol2-64", sc, TCORNoL2(64 * 1024)},
	})
}

// TestRerunIdentity_TableII runs one frame of every Table II benchmark
// through checkCases.
func TestRerunIdentity_TableII(t *testing.T) {
	checkCases(t, tableIICases(t))
}

// TestRerunIdentity_RandomConfigs runs seeded random configurations through
// checkCases.
func TestRerunIdentity_RandomConfigs(t *testing.T) {
	checkCases(t, randomCases(t, 12))
}

// checkCases runs each case as a subtest: the run must pass CheckInvariants,
// and a rerun must marshal to byte-identical JSON, including the bounded L2
// eviction trace, whose entry order would expose any drift in the commit
// order.
func checkCases(t *testing.T, cases []invariantCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := checkedResultJSON(t, tc.sc, tc.cfg)
			got := checkedResultJSON(t, tc.sc, tc.cfg)
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("rerun drifts from the first run at byte %d:\nfirst: ...%s...\nrerun: ...%s...",
					i, want[max(i-40, 0):min(i+40, len(want))], got[max(i-40, 0):min(i+40, len(got))])
			}
		})
	}
}

// checkedResultJSON simulates one run, fails the test on any invariant
// violation and returns the JSON-marshaled Result.
func checkedResultJSON(t *testing.T, sc *workload.Scene, cfg Config) []byte {
	t.Helper()
	res, err := Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated:\n%v", err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tableIICases builds a one-frame run of every Table II benchmark at the
// default screen, rotating through the three paper configurations so
// baseline, TCOR and the no-L2 ablation are all covered without tripling
// the run time.
func tableIICases(t *testing.T) []invariantCase {
	var cases []invariantCase
	for i, alias := range workload.Aliases() {
		cfg := []Config{Baseline(64 * 1024), TCOR(64 * 1024), TCORNoL2(64 * 1024)}[i%3]
		cfg.L2TraceDepth = 32
		cases = append(cases, invariantCase{
			name: fmt.Sprintf("%s/%s", alias, cfg.Kind),
			sc:   smallScene(t, alias, 1),
			cfg:  cfg,
		})
	}
	return cases
}

// randomCases draws seeded random configurations — screen and tile
// geometry, traversal order, cache kind, eviction tracing, leakage — so the
// model runs on shapes the curated suite never hits (small and odd screens,
// 16- and 64-pixel tiles, Hilbert and scanline order).
func randomCases(t *testing.T, n int) []invariantCase {
	rng := rand.New(rand.NewSource(0x7c02))
	cases := make([]invariantCase, n)
	for trial := range cases {
		screen := geom.Screen{
			Width:    256 + rng.Intn(8)*128,
			Height:   256 + rng.Intn(6)*128,
			TileSize: []int{16, 32, 64}[rng.Intn(3)],
		}
		spec := workload.Suite()[rng.Intn(len(workload.Suite()))]
		spec.Frames = 1
		spec.Seed = int64(1000 + trial)
		sc, err := workload.Generate(spec, screen)
		if err != nil {
			t.Fatal(err)
		}
		var cfg Config
		if rng.Intn(2) == 0 {
			cfg = Baseline(32 * 1024)
		} else {
			cfg = TCOR(64 * 1024)
		}
		cfg.Screen = screen
		cfg.Order = []tiling.Order{tiling.OrderScanline, tiling.OrderZ, tiling.OrderHilbert}[rng.Intn(3)]
		cfg.L2TraceDepth = 1 + rng.Intn(64)
		cfg.IncludeLeakage = rng.Intn(2) == 0
		t.Logf("random%d: screen=%dx%d/%d order=%v kind=%v trace=%d leakage=%v workload=%s",
			trial, screen.Width, screen.Height, screen.TileSize, cfg.Order, cfg.Kind,
			cfg.L2TraceDepth, cfg.IncludeLeakage, spec.Alias)
		cases[trial] = invariantCase{name: fmt.Sprintf("random%d", trial), sc: sc, cfg: cfg}
	}
	return cases
}

// TestCheckInvariantsDetectsCorruption proves the checks have teeth: a
// corrupted counter must fail the cross-level conservation identity.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	sc := smallScene(t, "CCS", 1)
	res, err := Simulate(sc, TCOR(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	res.VertexL2Reads++ // phantom request: appears at no other level
	err = res.CheckInvariants()
	if err == nil {
		t.Fatal("corrupted counter passed the invariant check")
	}
	if !strings.Contains(err.Error(), "l2IngressReadsConserved") {
		t.Errorf("wrong violation reported: %v", err)
	}
}

// TestStatsSchemaStableAcrossKinds checks that baseline and TCOR runs
// publish the identical counter-name set (the unused L1 organization shows
// up as zeros), so -stats JSON is schema-stable across configurations.
func TestStatsSchemaStableAcrossKinds(t *testing.T) {
	sc := smallScene(t, "CCS", 1)
	names := make(map[string][]string)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"baseline", Baseline(64 * 1024)},
		{"tcor", TCOR(64 * 1024)},
	} {
		res, err := Simulate(sc, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res.StatsRegistry().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]int64
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		for k := range m {
			names[tc.name] = append(names[tc.name], k)
		}
		for _, want := range []string{"l1.list.hits", "l1.attr.reads", "l1.tile.accesses",
			"l1.vertex.accesses", "l2.reads", "dram.reads", "raster.fragments"} {
			if _, ok := m[want]; !ok {
				t.Errorf("%s: counter %q missing from snapshot", tc.name, want)
			}
		}
	}
	if len(names["baseline"]) != len(names["tcor"]) {
		t.Errorf("schema differs: baseline has %d counters, tcor %d",
			len(names["baseline"]), len(names["tcor"]))
	}
}

// TestL2TraceRing wires the bounded eviction trace through a full run and
// checks depth bounding plus event plausibility.
func TestL2TraceRing(t *testing.T) {
	sc := smallScene(t, "CCS", 1)
	cfg := TCOR(64 * 1024)
	cfg.L2TraceDepth = 16
	res, err := Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.L2Trace == nil {
		t.Fatal("L2TraceDepth set but Result.L2Trace is nil")
	}
	evs := res.L2Trace.Events()
	if len(evs) > 16 {
		t.Fatalf("ring returned %d events, depth is 16", len(evs))
	}
	if res.L2Stats.Evictions > 0 && len(evs) == 0 {
		t.Fatal("L2 evicted lines but the trace recorded nothing")
	}
	if res.L2Trace.Total() != res.L2Stats.Evictions {
		t.Errorf("trace total %d != L2 evictions %d", res.L2Trace.Total(), res.L2Stats.Evictions)
	}
	for _, e := range evs {
		if e.Kind != "evict" {
			t.Errorf("unexpected event kind %q", e.Kind)
		}
		if e.Class != "dead" && e.Class != "non-PB" && e.Class != "live-PB" {
			t.Errorf("unexpected class %q", e.Class)
		}
		if e.Dropped && !e.Dirty {
			t.Errorf("clean line reported a dropped write-back: %+v", e)
		}
	}

	// Tracing must not perturb the simulation.
	plain, err := Simulate(sc, TCOR(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	if plain.L2Stats != res.L2Stats || plain.FrameCycles != res.FrameCycles {
		t.Error("enabling the L2 trace changed simulation results")
	}
}
