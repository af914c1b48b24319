package experiments

import (
	"context"
	"fmt"
	"sync"

	"tcor/internal/cache"
	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/stats"
	"tcor/internal/tiling"
	"tcor/internal/trace"
	"tcor/internal/workload"
)

// Runner generates scenes and runs full-system simulations, memoizing both
// so that the figures sharing the same underlying runs (Figs. 14–24 all
// come from six configurations per benchmark) pay for each run once.
//
// Every memoized product — scenes, attribute traces, stack profiles,
// full-system results — is keyed with per-key singleflight locking (see
// memo.go), so concurrent requests for different benchmarks or
// configurations proceed in parallel while duplicate requests for the same
// key coalesce into one computation. All suite-wide studies fan out through
// the bounded Sweep pool with deterministic result ordering, so a Runner's
// figures are byte-identical at every parallelism level.
type Runner struct {
	Screen geom.Screen
	// Frames overrides the per-spec frame count when positive (tests use 1
	// for speed; the paper harness uses the spec default).
	Frames int
	// Benchmarks restricts the suite (nil = all ten).
	Benchmarks []string
	// Parallel bounds the concurrent simulations in suite-wide sweeps
	// (0 = GOMAXPROCS). Results do not depend on it.
	Parallel int
	// Ctx, when non-nil, cancels in-flight suite sweeps (deadline or
	// cancellation); nil means context.Background(). Configure it once
	// before use, like the other fields.
	Ctx context.Context
	// MemoCap, when positive, bounds each memo table (scenes, runs, traces,
	// profiles) to that many completed entries with LRU eviction,
	// metered as "memo.<table>.evictions". Zero keeps the figure-harness
	// default: cache forever (the paper grid is finite). Long-running hosts
	// set it — or call PurgeMemo between batches — so an open-ended request
	// stream cannot grow the tables without bound.
	MemoCap int
	// Checkpoint, when non-nil (attach one with OpenCheckpoint), journals
	// every completed Run cell to an append-only file and restores journaled
	// cells instead of re-simulating, so a killed sweep resumes where it
	// died with byte-identical results.
	Checkpoint *Checkpoint

	scenes   memo[*workload.Scene]
	runs     memo[*gpu.Result]
	traces   memo[trace.Trace]
	profiles memo[cache.StackProfile]

	// metrics meters the runner itself: memo hit/miss counts per table and
	// simulations completed. Lazily created so the zero-value Runner works.
	metricsOnce sync.Once
	metrics     *stats.Registry

	// testSceneHook, when set, runs inside the memoized scene computation.
	// Tests use it to prove that distinct-alias Scene calls overlap in time
	// (the original coarse-mutex design serialized them).
	testSceneHook func(alias string)
}

// NewRunner returns a Runner over the default screen and full suite.
func NewRunner() *Runner {
	return &Runner{Screen: geom.DefaultScreen()}
}

// Metrics returns the runner's observability registry: memo-table
// hit/miss/eviction counters ("memo.<table>.hits"/".misses"/".evictions")
// and completed-simulation counts. Race-clean; sweeps running through the
// Runner publish into it live.
func (r *Runner) Metrics() *stats.Registry {
	r.metricsOnce.Do(func() { r.metrics = stats.NewRegistry() })
	return r.metrics
}

// meter returns the counters for one memo table.
func (r *Runner) meter(table string) (hits, misses, evictions *stats.Counter) {
	m := r.Metrics()
	return m.Counter("memo." + table + ".hits"),
		m.Counter("memo." + table + ".misses"),
		m.Counter("memo." + table + ".evictions")
}

// PurgeMemo drops every completed entry from every memo table and returns
// the number dropped, metering them as evictions. In-flight computations
// are untouched: their waiters still resolve, and they stay usable until a
// later purge or capacity eviction. Long-running hosts call it between
// batches; combined with MemoCap it keeps a daemon's Runner at a bounded
// footprint over an unbounded request stream.
func (r *Runner) PurgeMemo() int {
	n := 0
	ev := func(table string) *stats.Counter {
		_, _, e := r.meter(table)
		return e
	}
	n += r.scenes.purge(ev("scenes"))
	n += r.runs.purge(ev("runs"))
	n += r.traces.purge(ev("traces"))
	n += r.profiles.purge(ev("profiles"))
	return n
}

// baseCtx returns the runner's sweep context.
func (r *Runner) baseCtx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Suite returns the benchmark specs this runner covers, in paper order.
func (r *Runner) Suite() []workload.Spec {
	all := workload.Suite()
	if r.Benchmarks == nil {
		return all
	}
	var out []workload.Spec
	for _, alias := range r.Benchmarks {
		for _, s := range all {
			if s.Alias == alias {
				out = append(out, s)
			}
		}
	}
	return out
}

// Scene returns the calibrated scene for a benchmark.
func (r *Runner) Scene(alias string) (*workload.Scene, error) {
	hits, misses, evictions := r.meter("scenes")
	return r.scenes.get(alias, r.MemoCap, hits, misses, evictions, func() (*workload.Scene, error) {
		if hook := r.testSceneHook; hook != nil {
			hook(alias)
		}
		spec, err := workload.ByAlias(alias)
		if err != nil {
			return nil, err
		}
		if r.Frames > 0 {
			spec.Frames = r.Frames
		}
		return workload.Generate(spec, r.Screen)
	})
}

// Run simulates a benchmark under a configuration, memoized under the given
// configuration name.
func (r *Runner) Run(alias, cfgName string, cfg gpu.Config) (*gpu.Result, error) {
	return r.runScene([]runCell{{alias, cfgName, cfg}})[0].wait()
}

// runCell is one (benchmark, configuration) cell of the full-system grid,
// memoized as "alias/name".
type runCell struct {
	alias, name string
	cfg         gpu.Config
}

// runScene fills the memo cells of one benchmark's configurations and
// returns the cells in order. The cells must share the benchmark, the
// screen and the traversal order. A cell another caller already claimed is
// returned as it is, possibly still in flight. The others are all claimed
// before any work starts, so a concurrent Run of one of their keys waits
// for this call instead of simulating again. Each claimed cell is restored
// from the checkpoint when it is journaled there; the rest simulate
// together in one gpu.SimulateGroup, are journaled and are resolved.
func (r *Runner) runScene(cells []runCell) []*memoCell[*gpu.Result] {
	hits, misses, evictions := r.meter("runs")
	cp := r.Checkpoint
	out := make([]*memoCell[*gpu.Result], len(cells))
	var todo []int
	var fps []string
	for i, c := range cells {
		key := c.alias + "/" + c.name
		cell, leader := r.runs.claim(key, r.MemoCap, hits, misses, evictions)
		out[i] = cell
		if !leader {
			continue
		}
		var fp string
		if cp != nil {
			fp = cfgFingerprint(c.cfg)
			if res, ok := cp.lookup(key, fp); ok {
				cell.resolve(res, nil)
				continue
			}
		}
		todo = append(todo, i)
		fps = append(fps, fp)
	}
	if len(todo) == 0 {
		return out
	}

	sc, err := r.Scene(cells[0].alias)
	if err != nil {
		for _, i := range todo {
			out[i].resolve(nil, err)
		}
		return out
	}
	cfgs := make([]gpu.Config, len(todo))
	for k, i := range todo {
		cfgs[k] = cells[i].cfg
	}
	results, err := gpu.SimulateGroup(sc, cfgs)
	for k, i := range todo {
		c := cells[i]
		key := c.alias + "/" + c.name
		if err != nil {
			out[i].resolve(nil, fmt.Errorf("experiments: %s under %s: %w", c.alias, c.name, err))
		} else if jerr := cp.journal(key, fps[k], results[k]); jerr != nil {
			out[i].resolve(nil, fmt.Errorf("experiments: journaling %s: %w", key, jerr))
		} else {
			out[i].resolve(results[k], nil)
		}
	}
	return out
}

// prewarmConfigs returns the six full-system configurations behind
// Figs. 14-24 for one benchmark.
func prewarmConfigs(alias string) []runCell {
	var cells []runCell
	for _, sizeKB := range []int{64, 128} {
		cells = append(cells,
			runCell{alias, fmt.Sprintf("base%d", sizeKB), gpu.Baseline(sizeKB * 1024)},
			runCell{alias, fmt.Sprintf("tcor%d", sizeKB), gpu.TCOR(sizeKB * 1024)},
			runCell{alias, fmt.Sprintf("nol2-%d", sizeKB), gpu.TCORNoL2(sizeKB * 1024)})
	}
	return cells
}

// Prewarm runs the six full-system configurations behind Figs. 14-24 for
// every benchmark of the suite, so a subsequent figure pass is all cache
// hits. Each benchmark is one sweep job simulating its configurations
// together (see runScene); par bounds the concurrent jobs. Results are
// identical to the sequential path.
func (r *Runner) Prewarm(par int) error {
	return r.PrewarmContext(r.baseCtx(), par)
}

// PrewarmContext is Prewarm with explicit cancellation: the context aborts
// the sweep between benchmarks (a started benchmark's group runs to
// completion, but no new one begins once ctx is done). par <= 0 means
// GOMAXPROCS.
func (r *Runner) PrewarmContext(ctx context.Context, par int) error {
	_, err := SweepSlice(ctx, par, r.Suite(), func(_ context.Context, spec workload.Spec) (struct{}, error) {
		for _, c := range r.runScene(prewarmConfigs(spec.Alias)) {
			if _, err := c.wait(); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	})
	return err
}

// Binning returns the frame-0 binning of a benchmark under the paper's
// Z-order traversal. It bins afresh on every call: its one caller inside
// the Runner, AttributeTrace, is memoized itself.
func (r *Runner) Binning(alias string) (*tiling.Binning, error) {
	sc, err := r.Scene(alias)
	if err != nil {
		return nil, err
	}
	trav, err := tiling.NewTraversal(r.Screen, tiling.OrderZ)
	if err != nil {
		return nil, err
	}
	return tiling.Bin(r.Screen, trav, sc.Frame(0).Prims)
}

// AttributeTrace returns the memoized primitive-granularity access trace to
// PB-Attributes of a benchmark's first frame: one write per primitive in
// program order (the Polygon List Builder), then the Tile Fetcher's reads
// tile by tile in traversal order — the stream behind Figs. 1 and 11–13.
// The trace is annotated with Belady next-use indices.
func (r *Runner) AttributeTrace(alias string) (trace.Trace, error) {
	hits, misses, evictions := r.meter("traces")
	return r.traces.get(alias, r.MemoCap, hits, misses, evictions, func() (trace.Trace, error) {
		b, err := r.Binning(alias)
		if err != nil {
			return nil, err
		}
		var tr trace.Trace
		for p := range b.PrimTiles {
			tr = append(tr, trace.Access{Key: trace.Key(p), Write: true})
		}
		for _, tile := range b.Traversal.Seq {
			for _, e := range b.Lists[tile] {
				tr = append(tr, trace.Access{Key: trace.Key(e.Prim)})
			}
		}
		trace.AnnotateNextUse(tr)
		return tr, nil
	})
}

// LRUProfile returns the memoized Mattson stack-distance profile of a
// benchmark's attribute trace: fully-associative LRU miss ratios at every
// capacity from one pass (reference [27]'s own technique).
func (r *Runner) LRUProfile(alias string) (cache.StackProfile, error) {
	hits, misses, evictions := r.meter("profiles")
	return r.profiles.get(alias, r.MemoCap, hits, misses, evictions, func() (cache.StackProfile, error) {
		tr, err := r.AttributeTrace(alias)
		if err != nil {
			return cache.StackProfile{}, err
		}
		return cache.LRUStackDistances(tr), nil
	})
}

// PrimBytes is the average primitive size used to convert cache byte
// budgets into primitive capacities in the policy studies: ~3 attributes of
// 64 bytes each (§III-C1: "an average primitive has around 3 attributes,
// leading to 192 bytes").
const PrimBytes = 192

// CapacityPrims converts a cache size in KiB to a primitive capacity.
func CapacityPrims(sizeKB float64) int {
	cp := int(sizeKB * 1024 / PrimBytes)
	if cp < 1 {
		cp = 1
	}
	return cp
}

// cacheSimLRU is a test helper: event-driven fully associative LRU misses.
func cacheSimLRU(cp int, tr trace.Trace) (int64, error) {
	st, err := cache.Simulate(cache.Config{Lines: cp, WriteAllocate: true}, cache.NewLRU(), tr)
	if err != nil {
		return 0, err
	}
	return st.Misses, nil
}
