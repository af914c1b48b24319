// Package gpu ties the substrates into the full TBR GPU model of paper
// Fig. 2 and runs whole frames of a workload through it: Geometry Pipeline
// (vertex fetch through the Vertex Cache, vertex shading), Tiling Engine
// (Polygon List Builder and Tile Fetcher through the Tile Cache), Raster
// Pipeline (rasterization, Early-Z, fragment shading with texture caches,
// blending, frame-buffer flush), the shared L2, and DRAM. It reports the
// metrics the paper evaluates: Parameter Buffer traffic at each level,
// total main-memory accesses, memory-hierarchy and total GPU energy, Tile
// Fetcher throughput and frames per second.
//
// One frame loop runs every simulation. SimulateGroup steps several
// configurations of one scene (same screen and traversal order) through
// it in lockstep: each frame is binned once and each tile's raster plan
// is computed once and committed into every configuration;
// configurations that differ only in their back ends (L2, DRAM, timing,
// energy and tracing) share one front end (the Vertex Cache and the
// Tiling Engine); and each configuration keeps its own L2, DRAM and cycle
// accounting, so each result is byte-identical to the configuration run
// alone. Simulate is the one-configuration case.
package gpu

import (
	"fmt"

	"tcor/internal/dram"
	"tcor/internal/geom"
	"tcor/internal/l2"
	"tcor/internal/stats"
	"tcor/internal/tiling"
)

// TileCacheKind selects the Tiling Engine's L1 organization.
type TileCacheKind int

const (
	// KindBaseline is the single 4-way LRU block-granularity Tile Cache of
	// §II-C with the contiguous PB-Lists layout of Fig. 3.
	KindBaseline TileCacheKind = iota
	// KindTCOR is the split Primitive List Cache + Attribute Cache of
	// §III-C with the interleaved layout of Fig. 6.
	KindTCOR
)

// String names the kind.
func (k TileCacheKind) String() string {
	if k == KindTCOR {
		return "TCOR"
	}
	return "baseline"
}

// Timing groups the latency parameters of Table I plus the microarchitental
// knobs of the throughput model.
type Timing struct {
	ClockHz  float64
	L1Cycles int // L1 hit latency
	L2Cycles int // L2 hit latency
	// MSHROverlap divides miss penalties to model overlapping in-flight
	// misses in the Tile Fetcher.
	MSHROverlap int
	// VertexInstr and geometry throughput: shader instructions per vertex.
	VertexInstr int
}

// DefaultTiming returns the Table I timing (600 MHz, 1-cycle L1s, 12-cycle
// L2, DRAM timing lives in the DRAM config).
func DefaultTiming() Timing {
	return Timing{
		ClockHz:     600e6,
		L1Cycles:    1,
		L2Cycles:    12,
		MSHROverlap: 2,
		VertexInstr: 8,
	}
}

// Config is a full-system configuration.
type Config struct {
	Screen geom.Screen
	Order  tiling.Order

	Kind TileCacheKind
	// TileCacheBytes is the total Tiling Engine L1 budget (64 KiB baseline
	// experiment, 128 KiB for the larger one). TCOR splits it 16 KiB lists
	// + remainder attributes, matching §V-B.
	TileCacheBytes int
	TileCacheWays  int

	// InterleavedLists selects the PB-Lists layout of Fig. 6 (TCOR default
	// on, baseline off; exposed separately for the ablation).
	InterleavedLists bool
	// XORIndex / WriteBypass configure the Attribute Cache (TCOR ablations).
	XORIndex    bool
	WriteBypass bool
	// L2Enhanced turns on the dead-line L2 replacement (§III-D); "TCOR
	// without L2 enhancements" in Figs. 20/21 runs with this off.
	L2Enhanced bool
	// L2TraceDepth, when positive, attaches a bounded eviction trace to the
	// L2: the last N evictions with their replacement class, set, tile and
	// write-back disposition land in Result.L2Trace. Zero disables tracing
	// (no overhead on the hot path beyond one nil check).
	L2TraceDepth int
	// Tracer, when non-nil, records frame/phase/tile spans of the run into a
	// bounded in-memory trace (export with stats.Tracer.WriteChromeTrace —
	// `tcorsim -trace out.json` on the CLI). Nil disables tracing at the cost
	// of one branch per phase; it never affects simulation results. Excluded
	// from JSON so the serving layer's content-addressed result cache ignores
	// it.
	Tracer *stats.Tracer `json:"-"`
	// TraceParent, when non-nil, parents the run's frame spans under an
	// existing span instead of minting a fresh root trace per frame — the
	// serving layer threads its per-request "simulate" span through here so
	// the simulator's phase spans join the request's distributed trace.
	// Excluded from JSON like Tracer.
	TraceParent *stats.Span `json:"-"`
	// TraceTiles additionally records one span per tile under each frame's
	// "tiles" span. At the Table I screen that is ~1500 spans per frame —
	// the right resolution for single-run analysis (`tcorsim -trace`), far
	// too noisy for a serving process's bounded trace buffer, where one
	// sweep would flood the buffer and evict the request spans a
	// distributed trace is stitched from. Opt-in for that reason.
	TraceTiles bool `json:"-"`
	// IncludeLeakage adds per-structure static energy (leakage x frame
	// cycles) to the tallies. Off by default: the paper-matching
	// calibration is dynamic-energy based, and leakage rewards the faster
	// configuration, so it is a sensitivity knob rather than part of the
	// headline numbers.
	IncludeLeakage bool

	// OutputQueueDepth is the Tile Fetcher output queue capacity in
	// primitives: the window during which Attribute Cache lines stay
	// locked before the Rasterizer consumes them.
	OutputQueueDepth int

	VertexCacheBytes int
	VertexCacheWays  int

	L2     l2.Config
	DRAM   dram.Config
	Timing Timing
}

// Baseline returns the paper's baseline GPU with the given Tile Cache size.
func Baseline(tileCacheBytes int) Config {
	return Config{
		Screen:           geom.DefaultScreen(),
		Order:            tiling.OrderZ,
		Kind:             KindBaseline,
		TileCacheBytes:   tileCacheBytes,
		TileCacheWays:    4,
		InterleavedLists: false,
		L2Enhanced:       false,
		OutputQueueDepth: 32,
		VertexCacheBytes: 64 * 1024,
		VertexCacheWays:  4,
		L2:               l2.DefaultConfig(false),
		DRAM:             dram.DefaultConfig(),
		Timing:           DefaultTiming(),
	}
}

// TCOR returns the full TCOR configuration with the given total Tile Cache
// size.
func TCOR(tileCacheBytes int) Config {
	c := Baseline(tileCacheBytes)
	c.Kind = KindTCOR
	c.InterleavedLists = true
	c.XORIndex = true
	c.WriteBypass = true
	c.L2Enhanced = true
	c.L2 = l2.DefaultConfig(true)
	return c
}

// TCORNoL2 returns TCOR without the L2 enhancements (the middle bars of
// Figs. 20/21).
func TCORNoL2(tileCacheBytes int) Config {
	c := TCOR(tileCacheBytes)
	c.L2Enhanced = false
	c.L2 = l2.DefaultConfig(false)
	return c
}

// frontEndKey returns c with its back-end fields cleared. Configurations
// of a group whose keys are equal share one front end (see SimulateGroup).
// A back-end field sets only what a front end never reads: the L2, DRAM,
// the cycle accounting (Timing), energy and span recording. L2Enhanced is
// one of them because the front end's Primitive List Cache sends each
// back end its requests tagged or untagged as that back end's L2 needs. A
// field not cleared here is a front-end field, so a new field splits front
// ends until it is classified; TestConfigFieldsClassified makes that a
// decision.
func (c Config) frontEndKey() Config {
	c.L2Enhanced = false
	c.L2TraceDepth = 0
	c.Tracer, c.TraceParent, c.TraceTiles = nil, nil, false
	c.IncludeLeakage = false
	c.L2 = l2.Config{}
	c.DRAM = dram.Config{}
	c.Timing = Timing{}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Screen.Validate(); err != nil {
		return err
	}
	if c.TileCacheBytes <= 0 {
		return fmt.Errorf("gpu: tile cache size must be positive")
	}
	if c.OutputQueueDepth <= 0 {
		return fmt.Errorf("gpu: output queue depth must be positive")
	}
	if c.Timing.MSHROverlap <= 0 {
		return fmt.Errorf("gpu: MSHR overlap must be positive")
	}
	if c.L2Enhanced != c.L2.Enhanced {
		// The list cache tags last-use for the L2 by L2Enhanced, the L2
		// replaces by L2.Enhanced, and the stats invariants pick the L2
		// identity set by L2Enhanced: one decision, so one value.
		return fmt.Errorf("gpu: L2Enhanced %v disagrees with L2.Enhanced %v", c.L2Enhanced, c.L2.Enhanced)
	}
	return nil
}
