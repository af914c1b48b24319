package gpu

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/raster"
	"tcor/internal/stats"
	"tcor/internal/tiling"
)

// groupConfigs returns the six configurations behind Figs. 14-24, the
// three presets at 64 and 128 KiB: the set experiments' prewarm simulates
// as one group per benchmark.
func groupConfigs() []Config {
	var cfgs []Config
	for _, kb := range []int{64, 128} {
		cfgs = append(cfgs, Baseline(kb<<10), TCOR(kb<<10), TCORNoL2(kb<<10))
	}
	return cfgs
}

// TestSimulateGroupMatchesSolo is SimulateGroup's differential test:
// every result of one SimulateGroup call over the six paper configurations
// must marshal byte-identical to the same configuration simulated alone,
// over two frames, with span tracing (per-tile spans included) off and on.
// Only the group's first configuration filters texture taps through its
// own texture caches; the others commit its filtered plans. So the group
// also runs in reverse order and as the tail the prewarm memo leaves when
// the first cells are already resolved, which puts each preset first once
// and pins every non-first configuration, which builds no texture caches,
// against its solo run.
func TestSimulateGroupMatchesSolo(t *testing.T) {
	for _, alias := range []string{"CCS", "DDS", "Mze"} {
		sc := smallScene(t, alias, 2)
		cfgs := groupConfigs()
		solo := make([][]byte, len(cfgs))
		for i, cfg := range cfgs {
			res, err := Simulate(sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.RasterStats.TexMisses == 0 || res.RasterStats.TexMisses == res.RasterStats.TexAccesses {
				t.Fatalf("%s: %+v: the scene exercises the texture caches too little", alias, res.RasterStats)
			}
			if solo[i], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
		}
		forward := []int{0, 1, 2, 3, 4, 5}
		runs := []struct {
			name   string
			order  []int
			traced bool
		}{
			{"forward", forward, false},
			{"forward", forward, true},
			{"reverse", []int{5, 4, 3, 2, 1, 0}, false},
			{"tail", []int{4, 5}, false},
		}
		for _, run := range runs {
			var tr *stats.Tracer
			if run.traced {
				tr = stats.NewTracer(1 << 16)
			}
			grouped := make([]Config, len(run.order))
			for k, i := range run.order {
				grouped[k] = cfgs[i]
				grouped[k].Tracer, grouped[k].TraceTiles = tr, run.traced
			}
			results, err := SimulateGroup(sc, grouped)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(grouped) {
				t.Fatalf("%s: %d results for %d configurations", alias, len(results), len(grouped))
			}
			for k, res := range results {
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if i := run.order[k]; !bytes.Equal(got, solo[i]) {
					t.Errorf("%s %s traced=%v: configuration %d (%s %d KiB) differs from its solo run",
						alias, run.name, run.traced, i, cfgs[i].Kind, cfgs[i].TileCacheBytes>>10)
				}
			}
			if run.traced {
				checkGroupSpans(t, tr, len(cfgs), sc.NumFrames(), cfgs[0].Screen.NumTiles())
			}
		}
	}
}

// checkGroupSpans checks a traced group's span tree: every configuration
// records frame > {geometry, tiles > tile...} per frame, and the shared
// binning is recorded once per frame, under the first configuration's
// frame span.
func checkGroupSpans(t *testing.T, tr *stats.Tracer, n, frames, numTiles int) {
	t.Helper()
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans", tr.Dropped())
	}
	byID := map[int64]stats.SpanRecord{}
	count := map[string]int{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
		count[s.Name]++
	}
	want := map[string]int{"frame": n * frames, "geometry": n * frames, "binning": frames, "tiles": n * frames, "tile": n * frames * numTiles}
	for name, c := range want {
		if count[name] != c {
			t.Errorf("%d %s spans, want %d", count[name], name, c)
		}
	}
	// Frame spans are opened configuration by configuration, so the first
	// configuration's frame span of each frame is the one with the lowest
	// ID among that frame's.
	firstFrame := map[string]int64{}
	for _, s := range byID {
		if s.Name != "frame" {
			continue
		}
		f := s.Attrs["frame"]
		if id, ok := firstFrame[f]; !ok || s.ID < id {
			firstFrame[f] = s.ID
		}
	}
	for _, s := range byID {
		if s.Name != "binning" {
			continue
		}
		p := byID[s.Parent]
		if p.Name != "frame" || firstFrame[p.Attrs["frame"]] != s.Parent {
			t.Errorf("binning span %d is not under the first configuration's frame span", s.ID)
		}
	}
}

// TestSimulateGroupRejectsMixedGroups checks that a group must share one
// screen and one traversal order, and must not be empty.
func TestSimulateGroupRejectsMixedGroups(t *testing.T) {
	sc := smallScene(t, "GTr", 1)
	otherScreen := TCOR(64 << 10)
	otherScreen.Screen = geom.Screen{Width: 640, Height: 480, TileSize: 32}
	otherOrder := TCOR(64 << 10)
	otherOrder.Order = tiling.OrderHilbert
	for name, cfg := range map[string]Config{"screen": otherScreen, "order": otherOrder} {
		if _, err := SimulateGroup(sc, []Config{Baseline(64 << 10), cfg}); err == nil ||
			!strings.Contains(err.Error(), "one screen and traversal order") {
			t.Errorf("group with a different %s: error %v", name, err)
		}
	}
	if _, err := SimulateGroup(sc, nil); err == nil {
		t.Error("an empty group must be rejected")
	}
	bad := TCOR(64 << 10)
	bad.TileCacheBytes = 0
	if _, err := SimulateGroup(sc, []Config{Baseline(64 << 10), bad}); err == nil ||
		!strings.Contains(err.Error(), "group configuration 1") {
		t.Errorf("group with an invalid configuration: error %v", err)
	}
}

// TestSimulateGroupBuildsOneTexCacheSet checks that a six-configuration
// group holds one set of texture caches, the first configuration's: the
// others commit its filtered plans and never build their own.
func TestSimulateGroupBuildsOneTexCacheSet(t *testing.T) {
	sc := smallScene(t, "GTr", 1)
	cfgs := groupConfigs()
	g, err := newGroup(sc, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.runFrame(0); err != nil {
		t.Fatal(err)
	}
	for i, s := range g.sims {
		want := 0
		if i == 0 {
			want = raster.NumTexCaches
		}
		if got := s.rasterPipe.TexCaches(); got != want {
			t.Errorf("configuration %d holds %d texture caches, want %d", i, got, want)
		}
		if s.rasterPipe.Stats().TexAccesses == 0 {
			t.Errorf("configuration %d committed no texture accesses", i)
		}
	}
}
