package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"tcor/internal/stats"
	"tcor/internal/workload"
)

// Sweep runs jobs through a bounded worker pool and returns their results
// with deterministic ordering: results[i] is jobs[i]'s value regardless of
// completion order, so aggregation over the result slice is reproducible at
// any parallelism level.
//
// par bounds the number of concurrently running jobs; par <= 0 means
// GOMAXPROCS. The context cancels the sweep: jobs not yet started when ctx
// is done are skipped, and the first job failure cancels the remainder.
// The returned error is the lowest-index job error that is not a
// cancellation, falling back to the first cancellation error; nil means
// every job ran and succeeded. Skipped jobs leave the zero value in their
// result slot.
//
// Every multi-benchmark and multi-size study of the harness routes through
// this pool (via forSuite and SweepSlice), which is what makes
// `paperfig -all -parallel N` scale while producing byte-identical tables.
func Sweep[T any](ctx context.Context, par int, jobs []func(context.Context) (T, error)) ([]T, error) {
	results := make([]T, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(jobs) {
		par = len(jobs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				// When the caller's context carries a stats.Tracer (or a
				// parent span), each job gets a span attributing its wall
				// time to its slot — how `paperfig -trace` shows where a
				// sweep spends its schedule. With no tracer this is two
				// context lookups per job, each of which is a simulation.
				sp, jctx := stats.StartSpan(ctx, "sweep.job", "experiments")
				sp.SetAttr("index", strconv.Itoa(i))
				sp.SetAttr("worker", strconv.Itoa(worker))
				results[i], errs[i] = runSweepJob(jctx, i, jobs[i])
				if errs[i] != nil {
					sp.SetAttr("error", errs[i].Error())
					cancel()
				}
				sp.End()
			}
		}(w)
	}
	// Workers drain the channel even after cancellation (recording ctx.Err
	// for the skipped indices), so this feed loop never blocks forever.
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	var cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return results, err
	}
	return results, cancelErr
}

// runSweepJob runs one job under the pool's safety shell. A panicking job
// (a simulator bug, an injected panic escaping a lower layer) is converted
// into that slot's error instead of crashing the pool's host: one poisoned
// cell fails one sweep, not the whole daemon.
func runSweepJob[T any](ctx context.Context, i int, job func(context.Context) (T, error)) (val T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: sweep job %d panicked: %v", i, p)
		}
	}()
	return job(ctx)
}

// SweepSlice maps fn over items through the Sweep pool, preserving item
// order in the result slice.
func SweepSlice[In, Out any](ctx context.Context, par int, items []In,
	fn func(context.Context, In) (Out, error)) ([]Out, error) {
	jobs := make([]func(context.Context) (Out, error), len(items))
	for i := range items {
		item := items[i]
		jobs[i] = func(ctx context.Context) (Out, error) { return fn(ctx, item) }
	}
	return Sweep(ctx, par, jobs)
}

// forSuite evaluates fn for every benchmark of the runner's suite through
// the worker pool and returns the per-benchmark values in suite order. The
// figure builders aggregate over the ordered slice afterwards, so averages
// and table rows are identical at every parallelism level.
func forSuite[T any](r *Runner, fn func(spec workload.Spec) (T, error)) ([]T, error) {
	return SweepSlice(r.baseCtx(), r.Parallel, r.Suite(),
		func(_ context.Context, spec workload.Spec) (T, error) { return fn(spec) })
}
