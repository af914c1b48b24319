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
// Every memoized product — scenes, binnings, traces, stack profiles,
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
	// binnings, profiles) to that many completed entries with LRU eviction,
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
	bins     memo[*tiling.Binning]
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
	n += r.bins.purge(ev("bins"))
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
	hits, misses, evictions := r.meter("runs")
	key := alias + "/" + cfgName
	return r.runs.get(key, r.MemoCap, hits, misses, evictions, func() (*gpu.Result, error) {
		cp := r.Checkpoint
		var fp string
		if cp != nil {
			fp = cfgFingerprint(cfg)
			if res, ok := cp.lookup(key, fp); ok {
				return res, nil
			}
		}
		sc, err := r.Scene(alias)
		if err != nil {
			return nil, err
		}
		res, err := gpu.Simulate(sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s under %s: %w", alias, cfgName, err)
		}
		if err := cp.journal(key, fp, res); err != nil {
			return nil, fmt.Errorf("experiments: journaling %s: %w", key, err)
		}
		return res, nil
	})
}

// prewarmJob is one (benchmark, configuration) cell of the Figs. 14-24 grid.
type prewarmJob struct {
	alias, name string
	cfg         gpu.Config
}

// prewarmConfigs returns the six full-system configurations behind
// Figs. 14-24 for one benchmark.
func prewarmConfigs(alias string) []prewarmJob {
	var jobs []prewarmJob
	for _, sizeKB := range []int{64, 128} {
		jobs = append(jobs,
			prewarmJob{alias, fmt.Sprintf("base%d", sizeKB), gpu.Baseline(sizeKB * 1024)},
			prewarmJob{alias, fmt.Sprintf("tcor%d", sizeKB), gpu.TCOR(sizeKB * 1024)},
			prewarmJob{alias, fmt.Sprintf("nol2-%d", sizeKB), gpu.TCORNoL2(sizeKB * 1024)})
	}
	return jobs
}

// Prewarm runs the six full-system configurations behind Figs. 14-24 for
// every benchmark of the suite concurrently, bounded by par workers, so a
// subsequent figure pass is all cache hits. Results are identical to the
// sequential path (runs are independent and memoized per key).
func (r *Runner) Prewarm(par int) error {
	return r.PrewarmContext(r.baseCtx(), par)
}

// PrewarmContext is Prewarm with explicit cancellation: the context aborts
// simulations between jobs (a started simulation runs to completion, but no
// new work begins once ctx is done). par <= 0 means GOMAXPROCS.
func (r *Runner) PrewarmContext(ctx context.Context, par int) error {
	var jobs []func(context.Context) (struct{}, error)
	for _, spec := range r.Suite() {
		for _, j := range prewarmConfigs(spec.Alias) {
			j := j
			jobs = append(jobs, func(context.Context) (struct{}, error) {
				_, err := r.Run(j.alias, j.name, j.cfg)
				return struct{}{}, err
			})
		}
	}
	_, err := Sweep(ctx, par, jobs)
	return err
}

// Binning returns the memoized frame-0 binning of a benchmark under the
// paper's Z-order traversal.
func (r *Runner) Binning(alias string) (*tiling.Binning, error) {
	hits, misses, evictions := r.meter("bins")
	return r.bins.get(alias, r.MemoCap, hits, misses, evictions, func() (*tiling.Binning, error) {
		sc, err := r.Scene(alias)
		if err != nil {
			return nil, err
		}
		trav, err := tiling.NewTraversal(r.Screen, tiling.OrderZ)
		if err != nil {
			return nil, err
		}
		return tiling.Bin(r.Screen, trav, sc.Frame(0).Prims)
	})
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
