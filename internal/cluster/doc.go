// Package cluster scales the tcord serving layer horizontally: N
// independent shard daemons, each a full single-node serving stack
// (admission gate, result cache, circuit breaker, chaos sites), fronted
// by a gateway that speaks the same public API.
//
// # One shell
//
// The gateway serves the public API through the same request shell as a
// shard (serve.Shell), with its own hooks for tenant, readiness and
// upstream errors, so a request it rejects gets a single daemon's answer.
//
// # Placement
//
// Every simulation reduces to a content address (serve.CanonicalKey): a
// sha256 over the resolved workload spec and configuration. A
// consistent-hash ring with virtual nodes (Ring) maps each address to an
// owning shard, so repeated requests for the same simulation land on the
// same shard's result cache no matter which gateway routes them, and
// adding a shard moves only ~1/N of the key space. Per-node serving
// limits never enter the hash, so a gateway and every shard agree on
// placement from the shard list alone — there is no coordination service
// and no shard-to-shard traffic; all routing intelligence lives in the
// gateway.
//
// # Routing
//
// Every upstream call is one attempt: a child span of the request's root
// (its identity travels to the shard in the traceparent header), then the
// resilience.SiteProxy chaos site, then the call, whose outcome is filed
// with the shard's circuit breaker. An open breaker takes its shard out of
// the candidate order entirely, so a dead shard costs one failed round
// before traffic routes around it; the typed client under each shard adds
// bounded retries for transient blips. Attempts reach the shards three
// ways:
//
//   - /v1/simulate races attempts on the key's ring candidates, owner
//     first. Hedging: when the owner has not answered within the hedge
//     delay (adaptive: the observed p99 of proxied simulate latency,
//     floored at 50ms), a second copy goes to the next shard on the ring
//     and whichever answers first is served. Simulations are
//     deterministic and content-addressed, so duplicated work is wasted
//     cycles at worst, never divergent answers. Failover: when an attempt
//     errors, the next candidate gets one. Before a non-owner shard is
//     allowed to simulate, the owner's cache is probed with a cache-only
//     request (serve.CacheOnlyHeader): a shard whose compute path is
//     broken (its breaker open) still answers hits from cache, and a dead
//     one fails the probe fast.
//
//   - /v1/arena and the job routes (async submit, get, cancel, result)
//     walk the ring owner-first, one attempt at a time. A 404 walks on
//     without counting a failover: a job submitted while its owner was
//     down lives on a successor. Any other 4xx except 429 is the request's
//     own fault and passes through; 5xx, transport errors and injected
//     faults fail over.
//
//   - /v1/sweep fans out as per-owner sub-sweeps, one attempt each,
//     chunked to the shards' sweep limit (serve.MaxSweepItems), and
//     reassembles the runs in global item order. Run bodies travel as raw
//     bytes end to end, so the merged response is byte-identical to a
//     single node serving the whole sweep. A sub-sweep that fails
//     mid-flight — a shard killed at the worst moment — degrades to
//     item-by-item simulate routing with full hedging and failover;
//     callers see nothing but latency.
//
// gw.failovers counts the attempts launched because the previous attempt
// failed, on every route. The cluster-wide reads — the job listing, the
// metrics rollup, cluster health and the stitched trace — ask every shard
// at once through one fan-out and wait for all of them.
//
// # Observability
//
// The gateway meters routing decisions (gw.hedges, gw.hedge.wins,
// gw.failovers, gw.probe.hits, gw.sweep.fallbackItems), per-shard client
// behavior (gw.shard.<i>.attempts/retries/giveups) and proxied latency
// (gw.proxy.duration, which also drives the adaptive hedger). GET
// /v1/ring reports the topology and each shard's breaker state; the
// standard /healthz, /readyz, /metrics and /v1/stats surfaces behave as
// on a single daemon. Request IDs pass through to shards, so one ID is
// greppable across both tiers' access logs.
package cluster
