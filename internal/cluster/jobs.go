package cluster

import (
	"context"
	"net/http"
	"sort"
	"strings"

	"tcor/internal/serve"
)

// --- durable job routing ---
//
// A job lives on exactly one shard: the ring owner of its content-addressed
// ID. The gateway recomputes that ID — kind, tenant credential, compacted
// body, the same recipe serve.JobID uses — and routes the submission there,
// forwarding the body verbatim so the shard derives the identical ID. Reads
// and cancels route by the ID in the URL. Both go through Gateway.route: a
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
	lists := make([][]serve.JobRecord, len(g.shards))
	errs := make([]error, len(g.shards))
	fanOut(len(g.shards), func(i int) {
		lists[i], errs[i] = g.shards[i].client.Jobs(ctx)
	})
	var all []serve.JobRecord
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		all = append(all, lists[i]...)
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
// then its successors when a shard errors or does not know the ID.
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

// proxyJob routes one job operation for key under the request's deadline
// and relays the holding shard's answer verbatim.
func (g *Gateway) proxyJob(w http.ResponseWriter, r *http.Request, key, span string, call func(context.Context, *shard) ([]byte, int, error)) {
	ctx, cancel := g.shell.RequestContext(r, 0)
	defer cancel()
	rep, err := g.route(ctx, key, span, 0, func(ctx context.Context, t try) (reply, error) {
		data, status, err := call(ctx, t.sh)
		return reply{body: data, status: status, shard: t.sh}, err
	})
	if err != nil {
		g.shell.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(serve.ShardHeader, rep.shard.name)
	w.WriteHeader(rep.status)
	w.Write(rep.body) //nolint:errcheck // client gone is its own problem
}
