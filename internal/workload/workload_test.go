package workload

import (
	"math"
	"os"
	"strings"
	"testing"

	"tcor/internal/geom"
)

func TestSuiteMatchesTableII(t *testing.T) {
	suite := Suite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d benchmarks, want 10", len(suite))
	}
	for _, s := range suite {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Alias, err)
		}
	}
	// Spot-check published values.
	ccs, err := ByAlias("CCS")
	if err != nil {
		t.Fatal(err)
	}
	if ccs.PBFootprintMiB != 0.17 || ccs.AvgPrimReuse != 5.9 || ccs.ThreeD {
		t.Errorf("CCS spec mismatch: %+v", ccs)
	}
	dds, _ := ByAlias("DDS")
	if dds.PBFootprintMiB != 1.81 || dds.AvgPrimReuse != 1.4 {
		t.Errorf("DDS spec mismatch: %+v", dds)
	}
	if _, err := ByAlias("nope"); err == nil {
		t.Error("expected error for unknown alias")
	}
	if len(Aliases()) != 10 || Aliases()[0] != "CCS" {
		t.Errorf("Aliases = %v", Aliases())
	}
}

func TestSpecValidate(t *testing.T) {
	good := Suite()[0]
	cases := []func(*Spec){
		func(s *Spec) { s.Alias = "" },
		func(s *Spec) { s.PBFootprintMiB = 0 },
		func(s *Spec) { s.PBFootprintMiB = maxPBFootprintMiB + 1 },
		func(s *Spec) { s.PBFootprintMiB = math.NaN() },
		func(s *Spec) { s.AvgPrimReuse = math.NaN() },
		func(s *Spec) { s.MeanAttrs = math.NaN() },
		func(s *Spec) { s.TextureMiB = -1 },
		func(s *Spec) { s.ShaderInstrPerPixel = -1 },
		func(s *Spec) { s.AvgPrimReuse = 0.5 },
		func(s *Spec) { s.MeanAttrs = 0 },
		func(s *Spec) { s.MeanAttrs = 20 },
		func(s *Spec) { s.Frames = 0 },
	}
	for i, mutate := range cases {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGenerateCalibratesToTargets(t *testing.T) {
	screen := geom.DefaultScreen()
	for _, spec := range Suite() {
		spec := spec
		spec.Frames = 1
		t.Run(spec.Alias, func(t *testing.T) {
			sc, err := Generate(spec, screen)
			if err != nil {
				t.Fatal(err)
			}
			st := sc.Stats()
			targetBytes := spec.PBFootprintMiB * 1024 * 1024
			if r := float64(st.PBFootprint) / targetBytes; math.Abs(r-1) > 0.10 {
				t.Errorf("PB footprint %d bytes is %.1f%% of target %.0f",
					st.PBFootprint, 100*r, targetBytes)
			}
			if r := st.AvgPrimReuse / spec.AvgPrimReuse; math.Abs(r-1) > 0.12 {
				t.Errorf("avg reuse %.2f is %.1f%% of target %.2f",
					st.AvgPrimReuse, 100*r, spec.AvgPrimReuse)
			}
			if math.Abs(st.AvgAttrs-spec.MeanAttrs) > 0.3 {
				t.Errorf("avg attrs %.2f, want ~%.1f", st.AvgAttrs, spec.MeanAttrs)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Suite()[1]
	spec.Frames = 2
	screen := geom.DefaultScreen()
	a, err := Generate(spec, screen)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(spec, screen)
	if a.NumFrames() != b.NumFrames() {
		t.Fatal("frame count differs")
	}
	for f := 0; f < a.NumFrames(); f++ {
		fa, fb := a.Frame(f), b.Frame(f)
		if len(fa.Prims) != len(fb.Prims) {
			t.Fatalf("frame %d prim count differs", f)
		}
		for i := range fa.Prims {
			if fa.Prims[i].Pos != fb.Prims[i].Pos {
				t.Fatalf("frame %d prim %d differs", f, i)
			}
		}
	}
}

func TestGenerateFramesDifferButResemble(t *testing.T) {
	spec := Suite()[0]
	spec.Frames = 2
	screen := geom.DefaultScreen()
	sc, err := Generate(spec, screen)
	if err != nil {
		t.Fatal(err)
	}
	f0, f1 := sc.Frame(0), sc.Frame(1)
	if len(f0.Prims) != len(f1.Prims) {
		t.Errorf("frames have different prim counts: %d vs %d", len(f0.Prims), len(f1.Prims))
	}
	same := 0
	for i := range f0.Prims {
		if f0.Prims[i].Pos == f1.Prims[i].Pos {
			same++
		}
	}
	if same == len(f0.Prims) {
		t.Error("animation produced identical frames")
	}
	// Frame 1 statistics stay in the calibrated ballpark.
	st1 := Measure(screen, f1)
	if r := st1.AvgPrimReuse / spec.AvgPrimReuse; r < 0.7 || r > 1.4 {
		t.Errorf("frame 1 reuse %.2f drifted too far from target %.2f",
			st1.AvgPrimReuse, spec.AvgPrimReuse)
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate(Spec{}, geom.DefaultScreen()); err == nil {
		t.Error("expected error for empty spec")
	}
	spec := Suite()[0]
	if _, err := Generate(spec, geom.Screen{}); err == nil {
		t.Error("expected error for invalid screen")
	}
}

// TestGenerateRejectsUnreachableReuse: no primitive overlaps more than the
// screen's 1488 tiles, so a higher re-use target fails before calibration
// instead of returning a scene far off it (1e300 overflows the size scale).
func TestGenerateRejectsUnreachableReuse(t *testing.T) {
	screen := geom.DefaultScreen()
	for _, reuse := range []float64{1e6, 1e300} {
		spec := Suite()[0]
		spec.AvgPrimReuse = reuse
		spec.Frames = 1
		sc, err := Generate(spec, screen)
		if err == nil {
			t.Fatalf("reuse %g: got a scene with realized reuse %.2f, want an error", reuse, sc.Stats().AvgPrimReuse)
		}
		if !strings.Contains(err.Error(), "1488 tiles") {
			t.Errorf("reuse %g: error %q does not name the screen's tile count", reuse, err)
		}
	}
	spec := Suite()[0]
	spec.AvgPrimReuse = float64(screen.NumTiles())
	spec.Frames = 1
	if _, err := Generate(spec, screen); err != nil {
		t.Errorf("reuse equal to the tile count must be accepted: %v", err)
	}
}

func TestPrimitivesAreValidAndOnScreenish(t *testing.T) {
	spec := Suite()[6] // DDS, the biggest
	spec.Frames = 1
	screen := geom.DefaultScreen()
	sc, err := Generate(spec, screen)
	if err != nil {
		t.Fatal(err)
	}
	var buf []geom.TileID
	for i := range sc.Frame(0).Prims {
		p := &sc.Frame(0).Prims[i]
		if err := p.Validate(); err != nil {
			t.Fatalf("prim %d: %v", i, err)
		}
		if p.ID != uint32(i) {
			t.Fatalf("prim %d has ID %d; IDs must be program order", i, p.ID)
		}
		buf = screen.OverlappedTiles(p, buf[:0])
		if len(buf) == 0 {
			t.Fatalf("prim %d overlaps no tiles", i)
		}
	}
}

// TestGenerateStatsMatchMeasure pins the overlap count Generate carries out
// of scene synthesis: for every suite scene, the statistics it realized
// while calibrating equal a fresh Measure of its first frame.
func TestGenerateStatsMatchMeasure(t *testing.T) {
	screen := geom.DefaultScreen()
	for _, spec := range Suite() {
		spec.Frames = 1
		sc, err := Generate(spec, screen)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sc.Stats(), Measure(screen, sc.Frame(0)); got != want {
			t.Errorf("%s: Generate's stats %+v, Measure %+v", spec.Alias, got, want)
		}
	}
}

func TestParseSpecJSON(t *testing.T) {
	data := []byte(`{
		"name": "My Game", "alias": "MyG", "genre": "Racing", "threeD": true,
		"pbFootprintMiB": 0.9, "avgPrimReuse": 2.2,
		"textureMiB": 4, "shaderInstrPerPixel": 14, "frames": 2
	}`)
	s, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Alias != "MyG" || s.PBFootprintMiB != 0.9 || s.MeanAttrs != 1.4 || s.Frames != 2 {
		t.Errorf("spec = %+v", s)
	}
	// Unknown fields fail loudly.
	if _, err := ParseSpec([]byte(`{"alias":"X","pbFootprint":1}`)); err == nil {
		t.Error("unknown field must fail")
	}
	// Invalid values fail validation.
	if _, err := ParseSpec([]byte(`{"alias":"X","pbFootprintMiB":0.1,"avgPrimReuse":0.2}`)); err == nil {
		t.Error("reuse < 1 must fail")
	}
	// Alias derived from the name when absent.
	s, err = ParseSpec([]byte(`{"name":"Roadster","pbFootprintMiB":0.2,"avgPrimReuse":2}`))
	if err != nil || s.Alias != "Roa" {
		t.Errorf("derived alias = %q, err %v", s.Alias, err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := Suite()[3]
	data, err := MarshalSpec(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("round trip:\n%+v\n%+v", back, orig)
	}
}

func TestLoadSpecFile(t *testing.T) {
	path := t.TempDir() + "/spec.json"
	data, _ := MarshalSpec(Suite()[0])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Alias != "CCS" {
		t.Errorf("alias = %q", s.Alias)
	}
	if _, err := LoadSpec(path + ".missing"); err == nil {
		t.Error("missing file must fail")
	}
}
