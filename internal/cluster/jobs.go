package cluster

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/serve/client"
	"tcor/internal/stats"
)

// --- durable job routing ---
//
// A job lives on exactly one shard: the ring owner of its content-addressed
// ID. The gateway recomputes that ID — kind, tenant credential, compacted
// body, the same recipe serve.JobID uses — and routes the submission there,
// forwarding the body verbatim so the shard derives the identical ID. Reads
// and cancels route by the ID in the URL. Both walk the ring on failure: a
// submission lands on the owner's successor when the owner is down, and a
// later poll finds it there because a shard's 404 sends the lookup to the
// next ring candidate instead of the caller.

// routeJobSubmit forwards an ?async=1 submission to the shard owning the
// job's content address and passes the shard's answer through unchanged —
// 202 for a fresh job, 200 for an idempotent resubmission.
func (g *Gateway) routeJobSubmit(w http.ResponseWriter, r *http.Request, kind string, body []byte) {
	id := serve.JobID(kind, serve.TenantKeyFromRequest(r), body)
	path := "/v1/sweep?async=1"
	if kind == serve.JobKindArena {
		path = "/v1/arena?async=1"
	}
	g.jobSubmits.Inc()
	g.proxyJob(w, r, id, "gw.job.submit", func(actx context.Context, sh *shard) ([]byte, int, error) {
		return sh.client.SubmitJobRaw(actx, path, body)
	})
}

// listJobs answers GET /v1/jobs at the gateway: the calling tenant's jobs
// across every shard, merged oldest-first — the same ordering one shard's
// own listing uses, extended cluster-wide.
func (g *Gateway) listJobs(r *http.Request) (any, error) {
	ctx, cancel := g.shell.RequestContext(r, 0)
	defer cancel()
	jobs, err := g.fanOutJobList(ctx)
	if err != nil {
		return nil, err
	}
	return serve.JobsResponse{Jobs: jobs}, nil
}

// fanOutJobList collects every shard's tenant-scoped job listing. Any shard
// failing fails the listing: a silently partial list would read as "those
// jobs are gone". Duplicated IDs — the same body resubmitted while ring
// candidates disagreed on a down owner — collapse to one row.
func (g *Gateway) fanOutJobList(ctx context.Context) ([]serve.JobRecord, error) {
	var mu sync.Mutex
	var firstErr error
	var all []serve.JobRecord
	var wg sync.WaitGroup
	for _, sh := range g.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			jobs, err := sh.client.Jobs(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			all = append(all, jobs...)
		}(sh)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].CreatedAtMs != all[j].CreatedAtMs {
			return all[i].CreatedAtMs < all[j].CreatedAtMs
		}
		return all[i].ID < all[j].ID
	})
	deduped := all[:0]
	seen := make(map[string]bool, len(all))
	for _, rec := range all {
		if seen[rec.ID] {
			continue
		}
		seen[rec.ID] = true
		deduped = append(deduped, rec)
	}
	if deduped == nil {
		deduped = []serve.JobRecord{}
	}
	return deduped, nil
}

// handleJob proxies GET /v1/jobs/{id}, GET /v1/jobs/{id}/result and
// DELETE /v1/jobs/{id} to the shard holding the job — the ring owner first,
// walking successors when a shard errors or does not know the ID.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
	if id == "" {
		g.shell.WriteError(w, serve.ErrJobNotFound)
		return
	}
	var call func(context.Context, *shard) ([]byte, int, error)
	switch {
	case sub == "" && r.Method == http.MethodGet:
		call = func(ctx context.Context, sh *shard) ([]byte, int, error) {
			data, err := sh.client.JobRaw(ctx, id)
			return data, http.StatusOK, err
		}
	case sub == "" && r.Method == http.MethodDelete:
		call = func(ctx context.Context, sh *shard) ([]byte, int, error) {
			data, err := sh.client.CancelJobRaw(ctx, id)
			return data, http.StatusOK, err
		}
	case sub == "result" && r.Method == http.MethodGet:
		call = func(ctx context.Context, sh *shard) ([]byte, int, error) {
			data, err := sh.client.JobResult(ctx, id)
			return data, http.StatusOK, err
		}
	default:
		g.shell.WriteError(w, serve.MethodNotAllowed(http.MethodGet, http.MethodDelete))
		return
	}
	g.jobProxied.Inc()
	g.proxyJob(w, r, id, "gw.job.proxy", call)
}

// proxyJob runs one job operation through jobAttempts under the request's
// deadline and relays the holding shard's answer verbatim.
func (g *Gateway) proxyJob(w http.ResponseWriter, r *http.Request, key, op string, call func(context.Context, *shard) ([]byte, int, error)) {
	ctx, cancel := g.shell.RequestContext(r, 0)
	defer cancel()
	data, status, sh, err := g.jobAttempts(ctx, key, op, call)
	if err != nil {
		g.shell.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(serve.ShardHeader, sh.name)
	w.WriteHeader(status)
	w.Write(data) //nolint:errcheck // client gone is its own problem
}

// jobAttempts runs one job operation against the ring candidates for key in
// owner-first order under each shard's breaker and the chaos injector. A
// 404 walks to the next candidate — the job may live on a successor that
// absorbed its submission while the owner was down — and only becomes the
// caller's answer when no candidate knows the ID. Other 4xx answers (401
// unknown tenant, 409 not-done) pass through from the first shard that
// holds the job; 5xx and transport errors fail over.
func (g *Gateway) jobAttempts(ctx context.Context, key, op string, call func(context.Context, *shard) ([]byte, int, error)) ([]byte, int, *shard, error) {
	var firstErr, notFound error
	for attempt, idx := range g.ring.Successors(key) {
		sh := g.shards[idx]
		done, allowErr := sh.brk.Allow()
		if allowErr != nil {
			if firstErr == nil {
				firstErr = allowErr
			}
			continue
		}
		sp, actx := stats.StartSpan(ctx, op, "cluster")
		sp.SetAttr("shard", "shard-"+strconv.Itoa(sh.idx))
		sp.SetAttr("attempt", strconv.Itoa(attempt))
		if attempt > 0 {
			sp.SetAttr("failover", "true")
		}
		if err := g.chaos.Inject(actx, resilience.SiteProxy); err != nil {
			done(resilience.Ignore) // injected at the gateway, not the shard's fault
			sp.SetAttr("outcome", attemptOutcome(ctx, err))
			sp.End()
			if firstErr == nil {
				firstErr = err
			}
			g.failovers.Inc()
			continue
		}
		data, status, err := call(actx, sh)
		done(shardOutcome(err))
		sp.SetAttr("outcome", attemptOutcome(ctx, err))
		sp.End()
		if err == nil {
			return data, status, sh, nil
		}
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status < 500 && ae.Status != http.StatusTooManyRequests {
			if ae.Status == http.StatusNotFound {
				if notFound == nil {
					notFound = err
				}
				continue // not a failover: the shard is healthy, just not the holder
			}
			// The shard rejected the request itself — every shard would.
			return nil, 0, nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
		g.failovers.Inc()
		if ctx.Err() != nil {
			break
		}
	}
	if notFound != nil {
		return nil, 0, nil, notFound
	}
	return nil, 0, nil, firstErr
}
