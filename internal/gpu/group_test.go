package gpu

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// soloVariants extends groupConfigs with configurations that differ from
// TCOR or TCORNoL2 (64 KiB) only in back-end fields, so they share its
// front end in a group: index 6 is TCORNoL2 with an L2 eviction trace,
// whose Tile fields pin the untagging of the Primitive List Cache's
// requests; 7 is TCORNoL2 with its own L2 timing; 8 is TCOR with an L2
// eviction trace and leakage energy.
func soloVariants() []Config {
	cfgs := groupConfigs()
	traced := TCORNoL2(64 << 10)
	traced.L2TraceDepth = 1 << 12
	timing := TCORNoL2(64 << 10)
	timing.Timing.L2Cycles, timing.Timing.MSHROverlap = 20, 3
	leaky := TCOR(64 << 10)
	leaky.L2TraceDepth, leaky.IncludeLeakage = 1<<12, true
	return append(cfgs, traced, timing, leaky)
}

// TestSimulateGroupMatchesSolo is SimulateGroup's differential test:
// every result of a SimulateGroup call must marshal byte-identical to the
// same configuration simulated alone, over two frames, with span tracing
// (per-tile spans included) off and on. The group shapes pin both levels
// of sharing:
//   - Only the group's first configuration filters texture taps through
//     its own texture caches; the others commit its filtered plans. So the
//     six paper configurations also run in reverse order and as the tail
//     the prewarm memo leaves when the first cells are already resolved,
//     which puts each preset first once.
//   - Configurations equal outside their back ends share one front end:
//     TCOR and TCORNoL2 alone in both orders, a lone TCORNoL2, a
//     duplicated configuration, members that differ in L2 timing or
//     energy, and a TCORNoL2 with an L2 eviction trace, whose Tile fields
//     show whether its list-cache requests arrived untagged. A member with
//     a different TileCacheBytes gets its own front end.
//
// Each run also states how many front ends its group builds.
func TestSimulateGroupMatchesSolo(t *testing.T) {
	for _, alias := range []string{"CCS", "DDS", "Mze"} {
		sc := smallScene(t, alias, 2)
		cfgs := soloVariants()
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
		if bytes.Equal(solo[2], solo[6]) || bytes.Equal(solo[2], solo[7]) || bytes.Equal(solo[1], solo[8]) {
			t.Fatalf("%s: a back-end variant runs like its preset; the test would not see its back end", alias)
		}
		forward := []int{0, 1, 2, 3, 4, 5}
		runs := []struct {
			name   string
			order  []int
			traced bool
			fronts int
		}{
			{"forward", forward, false, 4},
			{"forward", forward, true, 4},
			{"reverse", []int{5, 4, 3, 2, 1, 0}, false, 4},
			{"tail", []int{4, 5}, false, 1},
			{"TCOR+NoL2", []int{1, 2}, false, 1},
			{"NoL2+TCOR", []int{2, 1}, true, 1},
			{"lone NoL2", []int{2}, false, 1},
			{"duplicate", []int{1, 2, 1}, false, 1},
			{"eviction trace", []int{1, 6, 8}, false, 1},
			{"eviction trace first", []int{6, 1}, false, 1},
			{"timing", []int{7, 1, 2}, true, 1},
			{"tile cache size", []int{1, 5, 2}, false, 2},
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
			g, err := newGroup(sc, grouped)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.fronts) != run.fronts {
				t.Errorf("%s %s: %d front ends, want %d", alias, run.name, len(g.fronts), run.fronts)
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
				checkGroupSpans(t, tr, len(grouped), run.fronts, sc.NumFrames(), cfgs[0].Screen.NumTiles())
			}
		}
	}
}

// checkGroupSpans checks a traced group's span tree: every configuration
// records frame > {tiles > tile...} per frame, each front end's geometry
// is recorded once per frame, under its first configuration's frame span,
// and the shared binning is recorded once per frame, under the first
// configuration's frame span.
func checkGroupSpans(t *testing.T, tr *stats.Tracer, n, fronts, frames, numTiles int) {
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
	want := map[string]int{"frame": n * frames, "geometry": fronts * frames, "binning": frames, "tiles": n * frames, "tile": n * frames * numTiles}
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
	for i, b := range g.backs {
		want := 0
		if i == 0 {
			want = raster.NumTexCaches
		}
		if got := b.rasterPipe.TexCaches(); got != want {
			t.Errorf("configuration %d holds %d texture caches, want %d", i, got, want)
		}
		if b.rasterPipe.Stats().TexAccesses == 0 {
			t.Errorf("configuration %d committed no texture accesses", i)
		}
	}
}

// TestConfigFieldsClassified lists every Config field as a front-end or a
// back-end field and checks frontEndKey against the list: changing a
// back-end field keeps a configuration's key, changing a front-end field
// changes it. A new field fails here until it is listed, and listing it
// decides whether configurations that differ in it may share a front end.
func TestConfigFieldsClassified(t *testing.T) {
	front := map[string]bool{
		"Screen": true, "Order": true, "Kind": true, "TileCacheBytes": true,
		"TileCacheWays": true, "InterleavedLists": true, "XORIndex": true,
		"WriteBypass": true, "OutputQueueDepth": true,
		"VertexCacheBytes": true, "VertexCacheWays": true,
	}
	back := map[string]bool{
		"L2Enhanced": true, "L2TraceDepth": true, "Tracer": true,
		"TraceParent": true, "TraceTiles": true, "IncludeLeakage": true,
		"L2": true, "DRAM": true, "Timing": true,
	}
	typ := reflect.TypeOf(Config{})
	if n := len(front) + len(back); n != typ.NumField() {
		t.Errorf("%d fields classified, Config has %d", n, typ.NumField())
	}
	base := TCOR(64 << 10)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if front[name] == back[name] {
			t.Errorf("Config.%s must be listed as exactly one of front-end and back-end", name)
			continue
		}
		c := base
		perturb(t, reflect.ValueOf(&c).Elem().Field(i))
		if c == base {
			t.Fatalf("perturbing Config.%s left the configuration unchanged", name)
		}
		if moved := c.frontEndKey() != base.frontEndKey(); moved != front[name] {
			t.Errorf("Config.%s: front-end field %v, but changing it moves the front-end key: %v", name, front[name], moved)
		}
	}
}

// perturb changes every settable leaf of v: it flips a bool, adds one to a
// number, points a pointer at a fresh value and recurses into a struct.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				perturb(t, v.Field(i))
			}
		}
	default:
		t.Fatalf("perturb: unsupported kind %s (%s)", v.Kind(), v.Type())
	}
}
