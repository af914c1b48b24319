package gpu

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/tiling"
	"tcor/internal/workload"
)

// parallelLevels are the TileParallel settings the differential harness
// exercises against serial: an even split, a prime that never divides the
// tile count evenly (ragged final chunks), and whatever the host offers.
func parallelLevels() []int {
	return []int{2, 7, runtime.GOMAXPROCS(0)}
}

// resultBytes runs one simulation and returns the JSON-marshaled Result —
// every counter, energy tally, histogram and L2 eviction ring — so a single
// byte of drift anywhere in the model fails the comparison.
func resultBytes(t testing.TB, sc *workload.Scene, cfg Config) []byte {
	t.Helper()
	res, err := Simulate(sc, cfg)
	if err != nil {
		t.Fatalf("simulate (parallel=%d): %v", cfg.TileParallel, err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return data
}

// diffAgainstSerial asserts that every parallelism level reproduces the
// serial run byte-for-byte.
func diffAgainstSerial(t *testing.T, sc *workload.Scene, cfg Config) {
	t.Helper()
	cfg.TileParallel = 1
	want := resultBytes(t, sc, cfg)
	for _, workers := range parallelLevels() {
		cfg.TileParallel = workers
		got := resultBytes(t, sc, cfg)
		if string(got) != string(want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo, hi := i-40, i+40
			if lo < 0 {
				lo = 0
			}
			if hi > len(want) {
				hi = len(want)
			}
			gotHi := hi
			if gotHi > len(got) {
				gotHi = len(got)
			}
			t.Fatalf("TileParallel=%d drifts from serial at byte %d:\nserial:   ...%s...\nparallel: ...%s...",
				workers, i, want[lo:hi], got[lo:gotHi])
		}
	}
}

// TestParallelDifferential_TableII is the differential golden harness for
// the parallel frame core: every Table II benchmark, at each parallelism
// level, must produce a gpu.Result that is byte-identical to the serial
// run once JSON-marshaled — including the bounded L2 eviction trace, whose
// entry order would expose any reordering of the commit stream. Run under
// -race in CI so the ordered merge is also exercised for data races.
func TestParallelDifferential_TableII(t *testing.T) {
	aliases := workload.Aliases()
	screen := geom.DefaultScreen()
	for i, alias := range aliases {
		// Rotate through the three paper configurations so baseline,
		// TCOR and the no-L2 ablation all get differential coverage
		// without tripling the run time.
		var cfg Config
		switch i % 3 {
		case 0:
			cfg = Baseline(64 * 1024)
		case 1:
			cfg = TCOR(64 * 1024)
		default:
			cfg = TCORNoL2(64 * 1024)
		}
		cfg.L2TraceDepth = 32
		t.Run(fmt.Sprintf("%s/%s", alias, cfg.Kind), func(t *testing.T) {
			spec, err := workload.ByAlias(alias)
			if err != nil {
				t.Fatal(err)
			}
			spec.Frames = 1 // one frame keeps the full-suite sweep tractable
			sc, err := workload.Generate(spec, screen)
			if err != nil {
				t.Fatal(err)
			}
			diffAgainstSerial(t, sc, cfg)
		})
	}
}

// TestParallelDifferential_RandomConfigs drives the harness with seeded
// random configurations — screen and tile geometry, traversal order, cache
// kind and sizes, eviction tracing, leakage — so the ordered merge is
// exercised on shapes the curated suite never hits (small screens, huge
// tiles, Hilbert order, and translucency on the 3D titles). gpu.Config
// cannot enable bilinear filtering; internal/raster's differential tests
// cover it.
func TestParallelDifferential_RandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7c02))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
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
			t.Logf("screen=%dx%d/%d order=%v kind=%v trace=%d leakage=%v workload=%s",
				screen.Width, screen.Height, screen.TileSize, cfg.Order, cfg.Kind,
				cfg.L2TraceDepth, cfg.IncludeLeakage, spec.Alias)
			diffAgainstSerial(t, sc, cfg)
		})
	}
}

// TestTileParallelValidate pins the config contract: negative parallelism is
// rejected, zero and one mean serial, and the field stays out of the JSON
// fingerprint so content-addressed result caches keep collapsing runs that
// differ only in worker count.
func TestTileParallelValidate(t *testing.T) {
	cfg := Baseline(64 * 1024)
	cfg.TileParallel = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative TileParallel validated")
	}
	cfg.TileParallel = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero TileParallel rejected: %v", err)
	}
	a, _ := json.Marshal(Baseline(64 * 1024))
	par := Baseline(64 * 1024)
	par.TileParallel = 8
	b, _ := json.Marshal(par)
	if string(a) != string(b) {
		t.Fatal("TileParallel leaks into the config JSON fingerprint")
	}
}
