package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcor/internal/cluster"
	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

const (
	// serveClients is the number of closed-loop callers, each waiting for
	// its reply before sending the next request: at most nproc on the
	// 2-vCPU reference machine.
	serveClients = 2
	serveShards  = 2
	// serveSetupRepeats is how often a run starts the cluster and warms
	// its hot set; setup_s is the median.
	serveSetupRepeats = 5
	// missEvery makes one request in every block of missEvery a cache
	// miss, at a seeded position; the other four hit the hot set. A fixed
	// mix keeps the latency percentiles of the blend comparable between
	// runs: p50 falls among the hits and p90 among the misses.
	missEvery = 5
	// missRefetch is how many misses are fetched again after the window
	// and checked against a direct simulation.
	missRefetch = 16
	// rssWarmRequests is the number of requests before the first segment
	// of a serve run's peak_rss_mb. By then the shards' result caches are
	// full: 200 requests carry 40 misses, and the hot set leaves 24 of the
	// 2 x 16 entries to them. Each rssSegmentRequests later requests are
	// one segment.
	rssWarmRequests    = 200
	rssSegmentRequests = 100
	// serveCacheEntries is each shard's result-cache capacity (see fleet).
	serveCacheEntries = 16
)

// hotSet is the eight Table II /v1/simulate requests the hits draw from,
// warmed during set-up.
func hotSet() []serve.SimulateRequest {
	titles := []string{"CCS", "SoD", "TRu", "SWa", "RoK", "Snp", "Mze", "GTr"}
	out := make([]serve.SimulateRequest, len(titles))
	for i, t := range titles {
		out[i] = serve.SimulateRequest{Benchmark: t, Frames: 1, Config: serve.ConfigTCOR}
		if i%2 == 1 {
			out[i].Config = serve.ConfigBaseline
		}
	}
	return out
}

// missSpec is the inline workload profile of a miss, in the JSON shape
// workload.ParseSpec accepts.
type missSpec struct {
	Name                string  `json:"name"`
	Alias               string  `json:"alias"`
	Genre               string  `json:"genre"`
	ThreeD              bool    `json:"threeD"`
	PBFootprintMiB      float64 `json:"pbFootprintMiB"`
	AvgPrimReuse        float64 `json:"avgPrimReuse"`
	TextureMiB          float64 `json:"textureMiB"`
	ShaderInstrPerPixel int     `json:"shaderInstrPerPixel"`
	Frames              int     `json:"frames"`
	Seed                int64   `json:"seed"`
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// missRequest returns the n-th miss of the seed's sequence: an inline spec
// with a seeded Parameter Buffer footprint, primitive reuse, texture
// footprint and scene seed. Its name is unique to (seed, n), so no other
// request shares its content address and it always misses the cache.
func missRequest(seed int64, n int) serve.SimulateRequest {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
	return serve.SimulateRequest{Spec: mustJSON(missSpec{
		Name:                fmt.Sprintf("bench-miss-%d-%d", seed, n),
		Alias:               "BMS",
		Genre:               "Synthetic",
		ThreeD:              rng.Intn(2) == 1,
		PBFootprintMiB:      round2(0.15 + 0.45*rng.Float64()),
		AvgPrimReuse:        round2(1.5 + 3.5*rng.Float64()),
		TextureMiB:          round2(1 + 3*rng.Float64()),
		ShaderInstrPerPixel: 4 + rng.Intn(13),
		Frames:              1,
		Seed:                rng.Int63n(1 << 31),
	})}
}

// mustJSON encodes the benchmark's own request values, which are plain
// fields (and specs encoded by this package), so encoding cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// requestAt returns the k-th request of the seed's sequence and the index
// of its hot-set entry, or -1 (and the miss number in miss) for a miss.
func requestAt(seed int64, k int, hot []serve.SimulateRequest) (req serve.SimulateRequest, hotIdx, miss int) {
	block, slot := k/missEvery, k%missEvery
	rng := rand.New(rand.NewSource(seed<<32 ^ int64(block)))
	missSlot := rng.Intn(missEvery)
	var picks [missEvery]int
	for i := range picks {
		picks[i] = rng.Intn(len(hot))
	}
	if slot == missSlot {
		return missRequest(seed, block), -1, block
	}
	return hot[picks[slot]], picks[slot], -1
}

// directBody is what /v1/simulate must serve for req: the canonical
// encoding of a direct gpu.Simulate of the same workload.
func directBody(req serve.SimulateRequest) ([]byte, error) {
	var spec workload.Spec
	var err error
	if req.Benchmark != "" {
		spec, err = workload.ByAlias(req.Benchmark)
	} else {
		spec, err = workload.ParseSpec(req.Spec)
	}
	if err != nil {
		return nil, err
	}
	if req.Frames > 0 {
		spec.Frames = req.Frames
	}
	name := req.Config
	if name == "" {
		name = serve.ConfigTCOR
	}
	cfg := gpu.TCOR(64 << 10)
	if name == serve.ConfigBaseline {
		cfg = gpu.Baseline(64 << 10)
	}
	sc, err := workload.Generate(spec, geom.DefaultScreen())
	if err != nil {
		return nil, err
	}
	res, err := gpu.Simulate(sc, cfg)
	if err != nil {
		return nil, err
	}
	return serve.EncodeRunResult(serve.BuildRunResult(spec.Alias, name, 64, res))
}

// fleet is a cluster.Gateway over in-process serve.Server shards on
// loopback, configured as cmd/tcord configures them by default, with two
// differences. The access log is formatted as usual and discarded. And
// each shard caches 16 results instead of 256: gpu.Simulate returns a
// pointer into its simulator, so a cached result keeps the whole
// simulator and its scene reachable, about 3.7 MiB of live heap. With
// every miss unique, the default capacity grew the process past 2 GiB in
// a 20 s window. 16 entries still hold the hot set, which is read far
// more often than misses arrive.
type fleet struct {
	shards    []*serve.Server
	shardURLs []string
	gw        *cluster.Gateway
	url       string
	upstream  *http.Transport // gateway -> shards
	client    *http.Client    // benchmark callers -> gateway
}

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func startFleet() (*fleet, error) {
	f := &fleet{
		upstream: http.DefaultTransport.(*http.Transport).Clone(),
		client:   &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()},
	}
	for i := 0; i < serveShards; i++ {
		s := serve.NewServer(serve.Options{
			QueueDepth:     64,
			CacheEntries:   serveCacheEntries,
			DefaultTimeout: time.Minute,
			TraceCapacity:  4096,
			MaxStale:       time.Hour,
			Breaker:        &resilience.BreakerConfig{},
			Logger:         discardLogger(),
		})
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, s)
		f.shardURLs = append(f.shardURLs, "http://"+addr)
	}
	gw, err := cluster.NewGateway(cluster.Options{
		Shards:        f.shardURLs,
		TraceCapacity: 4096,
		Logger:        discardLogger(),
		HTTPClient:    &http.Client{Transport: f.upstream},
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	addr, err := gw.Start("127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.gw, f.url = gw, "http://"+addr
	return f, nil
}

// stop drains the gateway, then the shards, and closes the idle
// connections of both transports.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.gw != nil {
		f.gw.Shutdown(ctx) //nolint:errcheck // a drain timeout leaves nothing further to do at exit
	}
	for _, s := range f.shards {
		s.Shutdown(ctx) //nolint:errcheck // as above
	}
	f.client.CloseIdleConnections()
	f.upstream.CloseIdleConnections()
}

// simulate POSTs one request body to base's /v1/simulate.
func (f *fleet) simulate(ctx context.Context, base string, body []byte, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// get serves one request through the gateway and checks the reply.
func (f *fleet) get(ctx context.Context, req serve.SimulateRequest, want []byte, hdr http.Header) error {
	status, got, err := f.simulate(ctx, f.url, mustJSON(req), hdr)
	if err != nil {
		return err
	}
	return checkReply(status, got, want)
}

// checkReply checks a /v1/simulate reply: a 200 whose body equals want
// when want is non-nil, or, for a miss, a one-frame result.
func checkReply(status int, got, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(got)))
	}
	if want != nil {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("body differs from a direct simulation")
		}
		return nil
	}
	var rr serve.RunResult
	if err := json.Unmarshal(got, &rr); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if rr.Frames != 1 {
		return fmt.Errorf("result has %d frames, want 1", rr.Frames)
	}
	return nil
}

// warm serves every hot request once, serveClients at a time.
func (f *fleet) warm(hot []serve.SimulateRequest, refs [][]byte) error {
	errs := make([]error, len(hot))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(hot); i = int(next.Add(1) - 1) {
				errs[i] = f.get(context.Background(), hot[i], refs[i], nil)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("warming %s: %w", hot[i].Benchmark, err)
		}
	}
	return nil
}

// sample is one request the closed loop sent.
type sample struct {
	from, to  time.Time
	ms        float64
	hit       bool
	afterMiss bool // the client's previous request was a miss
	traced    bool
	miss      int // miss number, -1 for a hit
	err       error
}

// runServe is the serve-cluster workload: serveClients closed-loop
// callers against a gateway over serveShards shards. Four requests in five
// hit the warmed hot set; the fifth is a unique inline spec, so it always
// misses and simulates.
func runServe(rc *runContext) (*outcome, error) {
	o := newOutcome()
	hot := hotSet()
	refs := make([][]byte, len(hot))
	for i, req := range hot {
		var err error
		if refs[i], err = directBody(req); err != nil {
			return nil, fmt.Errorf("reference for %s: %w", req.Benchmark, err)
		}
	}
	var f *fleet
	for r := 0; r < serveSetupRepeats; r++ {
		if f != nil {
			f.stop()
			runtime.GC() // the repetition's garbage is not the workload's footprint
		}
		scale := rc.calib.scaleNow(setupCalibSamples)
		t0 := time.Now()
		var err error
		if f, err = startFleet(); err != nil {
			return nil, err
		}
		if err := f.warm(hot, refs); err != nil {
			f.stop()
			return nil, err
		}
		o.addSetup(time.Since(t0), scale)
	}
	defer f.stop()

	// The shards simulate on every CPU, so the calibration kernel is
	// sampled in the background and each request is brought to the
	// reference speed by the samples taken around it.
	before := readFleet(f)
	stopCalib := rc.calib.sampleEvery(calibPeriod)
	samples, elapsed := serveLoop(rc, o, f, hot, refs)
	stopCalib()
	after := readFleet(f)

	// Hits fall into two groups: a client's first hit after its own miss,
	// and its later hits (first and later below, at the reference speed).
	var all, norm, hits, misses, first, later, rawFirst, rawLater, tracedHits, plainHits []float64
	var missNums []int
	for _, s := range samples {
		o.attempted++
		if s.err != nil {
			o.fail("%v", s.err)
		} else if !s.hit {
			missNums = append(missNums, s.miss)
		}
		n := s.ms * rc.calib.scaleOver(s.from, s.to)
		all = append(all, s.ms)
		norm = append(norm, n)
		switch {
		case !s.hit:
			misses = append(misses, s.ms)
			continue
		case s.afterMiss:
			first, rawFirst = append(first, n), append(rawFirst, s.ms)
		default:
			later, rawLater = append(later, n), append(rawLater, s.ms)
		}
		hits = append(hits, s.ms)
		if s.traced {
			tracedHits = append(tracedHits, s.ms)
		} else {
			plainHits = append(plainHits, s.ms)
		}
	}
	// op_ms_p50 is the geometric mean of the two hit groups' medians. A
	// client's first hit after its miss takes about twice as long as its
	// later hits (its connection and goroutines sat idle through the miss),
	// and these first hits are about a quarter of all hits. The median of
	// all requests, or of all hits, falls where the two groups meet, so
	// small shifts of either moved it: its spread over ten runs reached
	// 13%. Each group's median is steady on its own, and their geometric
	// mean moves by x% when both get x% faster, whatever their mix. With
	// one miss in every five requests, the 90th percentile of all requests
	// is about the median miss.
	o.metrics["op_ms_p50"] = geomean([]float64{median(first), median(later)})
	o.details["op_ms_p90"] = percentile(norm, 90)
	o.details["raw"] = map[string]float64{"op_ms_p50": geomean([]float64{median(rawFirst), median(rawLater)}),
		"op_ms_p90": percentile(all, 90), "ops_per_s": float64(len(samples)) / elapsed.Seconds()}
	latency := map[string]any{}
	for name, xs := range map[string][]float64{"all": all, "hit": hits, "hit_first": rawFirst, "hit_later": rawLater, "miss": misses} {
		tail, ok := tailPercentile(len(xs))
		latency[name] = map[string]any{"n": len(xs), "ms_p50": median(xs), "tail_ok": ok, "tail_p": tail, "ms_tail": percentile(xs, tail)}
	}
	o.details["latency"] = latency
	o.details["elapsed_s"] = elapsed.Seconds()

	// The last misses of the window, fetched again through the gateway,
	// must equal a direct simulation.
	sort.Ints(missNums)
	if len(missNums) > missRefetch {
		missNums = missNums[len(missNums)-missRefetch:]
	}
	for _, n := range missNums {
		o.attempted++
		req := missRequest(rc.seed, n)
		want, err := directBody(req)
		if err == nil {
			err = f.get(context.Background(), req, want, nil)
		}
		if err != nil {
			o.fail("miss %d re-fetch: %v", n, err)
		}
	}
	o.details["misses_refetched"] = len(missNums)

	if rc.traced() {
		if err := serveLayers(o, f, hot, before, after); err != nil {
			return nil, err
		}
		o.metrics["serve.hit_ms_p50"] = median(hits)
		o.metrics["serve.hit_ms_p90"] = percentile(hits, 90)
		o.metrics["serve.miss_ms_p50"] = median(misses)
		o.metrics["serve.miss_ms_p90"] = percentile(misses, 90)
		if len(plainHits) > 0 && len(tracedHits) > 0 {
			o.metrics["trace.overhead_pct"] = 100 * (median(tracedHits)/median(plainHits) - 1)
		}
	}
	return o, nil
}

// serveLoop runs the closed loop for the window. In a traced run every
// other request carries a benchmark span, propagated to the gateway and
// shards through the traceparent header.
func serveLoop(rc *runContext, o *outcome, f *fleet, hot []serve.SimulateRequest, refs [][]byte) ([]sample, time.Duration) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(rc.window)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prevMiss := false
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				req, hotIdx, miss := requestAt(rc.seed, k, hot)
				var want []byte
				if hotIdx >= 0 {
					want = refs[hotIdx]
				}
				s := sample{hit: hotIdx >= 0, afterMiss: prevMiss, miss: miss, traced: rc.traced() && k%2 == 0}
				prevMiss = !s.hit
				body := mustJSON(req)
				var hdr http.Header
				var sp *stats.Span
				if s.traced {
					sp = rc.tracer.Begin("request", "bench")
					sp.SetAttr("hit", fmt.Sprint(s.hit))
					hdr = http.Header{}
					stats.InjectTraceparent(hdr, sp.Context())
				}
				s.from = time.Now()
				status, got, err := f.simulate(context.Background(), f.url, body, hdr)
				s.to = time.Now()
				s.ms = ms(s.to.Sub(s.from))
				sp.End()
				if err == nil {
					err = checkReply(status, got, want)
				}
				if err != nil {
					s.err = fmt.Errorf("request %d: %w", k, err)
				}
				mu.Lock()
				samples = append(samples, s)
				if n := len(samples) - rssWarmRequests; n >= 0 && n%rssSegmentRequests == 0 {
					o.rss.next()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	o.rss.end()
	return samples, time.Since(start)
}

// fleetState is a reading of the shards' and the gateway's registries,
// counters summed and histograms merged over the shards.
type fleetState struct {
	counters map[string]int64
	hists    map[string]stats.HistogramSnapshot
}

func readFleet(f *fleet) fleetState {
	st := fleetState{counters: map[string]int64{}, hists: map[string]stats.HistogramSnapshot{}}
	regs := []*stats.Registry{f.gw.Registry()}
	for _, s := range f.shards {
		regs = append(regs, s.Registry())
	}
	for _, reg := range regs {
		hists := reg.Histograms()
		derived := map[string]bool{} // the scalars Snapshot derives from histograms
		for h := range hists {
			for _, s := range []string{".count", ".sum", ".p50", ".p90", ".p99"} {
				derived[h+s] = true
			}
		}
		for k, v := range reg.Snapshot() {
			if !derived[k] {
				st.counters[k] += v
			}
		}
		for k, h := range hists {
			acc := st.hists[k]
			acc.Count += h.Count
			acc.Sum += h.Sum
			for i := range h.Buckets {
				acc.Buckets[i] += h.Buckets[i]
			}
			st.hists[k] = acc
		}
	}
	return st
}

// since returns the activity between two readings.
func (st fleetState) since(b fleetState) fleetState {
	out := fleetState{counters: map[string]int64{}, hists: map[string]stats.HistogramSnapshot{}}
	for k, v := range st.counters {
		out.counters[k] = v - b.counters[k]
	}
	for k, h := range st.hists {
		p := b.hists[k]
		h.Count -= p.Count
		h.Sum -= p.Sum
		for i := range h.Buckets {
			h.Buckets[i] -= p.Buckets[i]
		}
		out.hists[k] = h
	}
	return out
}

func (st fleetState) quantileMs(hist string, q float64) float64 {
	return st.hists[hist].Quantile(q) / float64(time.Millisecond)
}

// serveLayers fills the serve-cluster per-layer metrics: the serving
// layers' own accounting over the window, the gateway hop and the cost of
// content-addressing a request.
func serveLayers(o *outcome, f *fleet, hot []serve.SimulateRequest, before, after fleetState) error {
	d := after.since(before)
	c := d.counters
	o.metrics["serve.cache_hit_ratio"] = ratio(c["serve.cache.hits"], c["serve.cache.hits"]+c["serve.cache.misses"])
	o.metrics["serve.queue_wait_ms_p50"] = d.quantileMs("serve.queue.wait", 0.50)
	o.metrics["serve.queue_wait_ms_p99"] = d.quantileMs("serve.queue.wait", 0.99)
	o.metrics["serve.sim_ms_p50"] = d.quantileMs("serve.sim.duration", 0.50)
	o.metrics["serve.encode_ms_p50"] = d.quantileMs("serve.encode.duration", 0.50)
	o.metrics["serve.rejected"] = float64(c["serve.rejected.queueFull"] + c["serve.rejected.canceledInQueue"] + c["serve.rejected.unknownTenant"])
	o.metrics["cluster.proxy_ms_p50"] = d.quantileMs("gw.proxy.duration", 0.50)
	o.metrics["cluster.hedges"] = float64(c["gw.hedges"])
	o.metrics["cluster.hedge_wins"] = float64(c["gw.hedge.wins"])
	o.metrics["cluster.failovers"] = float64(c["gw.failovers"])

	// The gateway hop: one hot request through the gateway against the
	// same request sent straight to its ring owner, alternating.
	req := hot[0]
	body := mustJSON(req)
	key, err := serve.CanonicalKey(req)
	if err != nil {
		return err
	}
	owner := f.shardURLs[f.gw.Ring().Owner(key)]
	var viaGW, direct []float64
	for i := 0; i < 40; i++ {
		for _, base := range []string{f.url, owner} {
			o.attempted++
			t0 := time.Now()
			status, _, err := f.simulate(context.Background(), base, body, nil)
			d := ms(time.Since(t0))
			if err != nil || status != http.StatusOK {
				o.fail("gateway hop probe to %s: status %d %v", base, status, err)
				continue
			}
			if base == f.url {
				viaGW = append(viaGW, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	o.metrics["cluster.hop_ms"] = median(viaGW) - median(direct)

	// Content addressing: serve.CanonicalKey over the hot set and a few
	// misses, timed in batches.
	reqs := append(append([]serve.SimulateRequest(nil), hot...), missRequest(0, 0), missRequest(0, 1))
	var perCall []float64
	for b := 0; b < 10; b++ {
		const calls = 200
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if _, err := serve.CanonicalKey(reqs[i%len(reqs)]); err != nil {
				return err
			}
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/1e3/calls)
	}
	o.metrics["serve.canonical_key_us"] = median(perCall)
	return nil
}
