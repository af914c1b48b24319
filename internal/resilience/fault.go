package resilience

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"math/rand/v2"

	"tcor/internal/stats"
)

// Well-known injection sites. A site is just a name the code under test
// evaluates at a failure-prone point; these constants keep the serving
// stack and its tests from drifting apart.
const (
	// SiteHTTP is evaluated by the serve middleware once per request,
	// before the handler runs (tcord -chaos arms it).
	SiteHTTP = "serve.http"
	// SiteSimulate is evaluated inside the result cache's singleflight
	// leader, after admission, just before the simulation runs.
	SiteSimulate = "serve.sim"
	// SiteSweep is evaluated by the experiments.Sweep worker pool once per
	// dispatched job.
	SiteSweep = "experiments.sweep"
	// SiteProxy is evaluated by the cluster gateway once per upstream
	// attempt, before the shard call leaves the process — an injected
	// fault looks exactly like a shard failure and must be absorbed by
	// hedging and failover.
	SiteProxy = "gw.proxy"
)

// FaultKind is one entry of an explicit fault sequence.
type FaultKind int

const (
	// KindNone injects nothing.
	KindNone FaultKind = iota
	// KindError injects the plan's error (or code) plus its latency.
	KindError
	// KindPanic injects a panic plus the plan's latency.
	KindPanic
	// KindLatency injects the plan's latency only.
	KindLatency
)

// FaultPlan says what one armed site injects. Probabilities draw from the
// site's seeded stream; an explicit Seq overrides them until exhausted.
type FaultPlan struct {
	// Rate is the probability of injecting a fault per evaluation: a
	// latency-only fault when Latency is set and neither Codes nor Err is,
	// an error fault otherwise (the default *InjectedError unless Err is
	// set). A plan with only Rate therefore injects errors.
	Rate float64
	// PanicRate is the probability of injecting a panic (evaluated before
	// Rate; the two must sum to at most 1).
	PanicRate float64
	// Latency is added to every injected fault (and is the whole fault for
	// latency-only injections).
	Latency time.Duration
	// Codes are HTTP-ish status codes; an error fault picks one from the
	// site's seeded stream.
	Codes []int
	// Err overrides the default *InjectedError for error faults.
	Err error
	// Seq, when non-empty, is an explicit schedule: evaluation i gets
	// Seq[i] until the sequence is exhausted, after which the
	// probabilistic fields take over. Tests use it to script exact
	// failure orders.
	Seq []FaultKind
}

// Fault is one evaluation's decision.
type Fault struct {
	Inject  bool
	Latency time.Duration
	Code    int
	Err     error
	Panic   bool
	Site    string
}

// InjectedError is the default error of an error fault.
type InjectedError struct {
	Site string
	Code int
}

func (e *InjectedError) Error() string {
	if e.Code != 0 {
		return fmt.Sprintf("resilience: injected fault at %s (code %d)", e.Site, e.Code)
	}
	return "resilience: injected fault at " + e.Site
}

// Injector is a deterministic fault injector: each armed site gets its own
// PRNG stream seeded from (injector seed, site name), so per-site fault
// schedules are reproducible regardless of how sites interleave under
// concurrency. A nil *Injector is a valid no-op, so instrumentation points
// stay unconditional.
type Injector struct {
	seed  int64
	clock Clock
	reg   *stats.Registry

	mu    sync.Mutex
	sites map[string]*siteState
}

type siteState struct {
	mu       sync.Mutex
	plan     FaultPlan
	rng      *rand.Rand
	seqIdx   int
	evals    *stats.Counter
	injected *stats.Counter
}

// NewInjector returns an injector whose fault schedules derive from seed.
// The same seed always yields the same per-site schedules.
func NewInjector(seed int64) *Injector {
	return &Injector{
		seed:  seed,
		clock: Wall(),
		reg:   stats.NewRegistry(),
		sites: make(map[string]*siteState),
	}
}

// WithClock sets the clock used for latency injection (tests pass a
// FakeClock so injected latency is virtual). Call before arming sites.
func (in *Injector) WithClock(c Clock) *Injector {
	in.clock = c
	return in
}

// Meter redirects the injector's per-site counters
// ("chaos.<site>.evaluations" / ".injected") into reg. Call before arming
// sites; a private registry meters otherwise (readable via Metrics).
func (in *Injector) Meter(reg *stats.Registry) *Injector {
	in.reg = reg
	return in
}

// Metrics returns the registry holding the injector's counters.
func (in *Injector) Metrics() *stats.Registry { return in.reg }

// Clock returns the injector's clock.
func (in *Injector) Clock() Clock {
	if in == nil {
		return Wall()
	}
	return in.clock
}

// Arm configures what site injects, replacing any previous plan and
// restarting the site's seeded stream and sequence position.
func (in *Injector) Arm(site string, plan FaultPlan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sites[site] = &siteState{
		plan:     plan,
		rng:      rand.New(rand.NewPCG(uint64(in.seed), fnv64(site))),
		evals:    in.reg.Counter("chaos." + site + ".evaluations"),
		injected: in.reg.Counter("chaos." + site + ".injected"),
	}
}

// Evaluate draws the next decision for site. Unarmed sites (and a nil
// injector) never inject.
func (in *Injector) Evaluate(site string) Fault {
	if in == nil {
		return Fault{}
	}
	in.mu.Lock()
	st := in.sites[site]
	in.mu.Unlock()
	if st == nil {
		return Fault{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evals.Inc()

	kind := KindNone
	if st.seqIdx < len(st.plan.Seq) {
		kind = st.plan.Seq[st.seqIdx]
		st.seqIdx++
	} else if st.plan.PanicRate > 0 || st.plan.Rate > 0 {
		switch u := st.rng.Float64(); {
		case u < st.plan.PanicRate:
			kind = KindPanic
		case u < st.plan.PanicRate+st.plan.Rate:
			if st.plan.Latency > 0 && len(st.plan.Codes) == 0 && st.plan.Err == nil {
				kind = KindLatency
			} else {
				kind = KindError
			}
		}
	}
	if kind == KindNone {
		return Fault{}
	}
	st.injected.Inc()
	f := Fault{Inject: true, Latency: st.plan.Latency, Site: site}
	switch kind {
	case KindPanic:
		f.Panic = true
	case KindError:
		f.Err = st.plan.Err
		if len(st.plan.Codes) > 0 {
			f.Code = st.plan.Codes[st.rng.IntN(len(st.plan.Codes))]
		}
		if f.Err == nil {
			f.Err = &InjectedError{Site: site, Code: f.Code}
		}
	}
	return f
}

// Inject evaluates site and applies the decision in place: it sleeps the
// injected latency on the injector's clock (aborting on ctx), panics for a
// panic fault, and returns the fault error for an error fault. It returns
// nil when nothing was injected or for latency-only faults.
func (in *Injector) Inject(ctx context.Context, site string) error {
	f := in.Evaluate(site)
	if !f.Inject {
		return nil
	}
	if f.Latency > 0 {
		if err := in.Clock().Sleep(ctx, f.Latency); err != nil {
			return err
		}
	}
	if f.Panic {
		panic("resilience: injected panic at " + site)
	}
	return f.Err
}

// fnv64 is FNV-1a over s, mixing the site name into its stream seed.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// injectorKey carries an *Injector in a context.
type injectorKey struct{}

// ContextWithInjector returns ctx carrying in, for layers (the experiments
// sweep pool) that are reached through a context rather than a config.
func ContextWithInjector(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, injectorKey{}, in)
}

// InjectorFrom returns the context's injector, or nil (a valid no-op
// injector) when absent.
func InjectorFrom(ctx context.Context) *Injector {
	in, _ := ctx.Value(injectorKey{}).(*Injector)
	return in
}

// ParsePlan parses the -chaos flag grammar: comma-separated key=value
// pairs, e.g. "rate=0.2,lat=50ms,codes=500|503,panic=0.01,seed=42".
//
//	rate=F    probability of an injected fault per evaluation (0..1): an
//	          error fault, or a latency-only one when lat is set without codes
//	panic=F   probability of an injected panic per evaluation (0..1)
//	lat=D     latency added to every injected fault (Go duration)
//	codes=C|C HTTP status codes error faults pick from (100..599)
//	seed=N    fault-schedule seed (default 1; same seed = same schedule)
//
// It returns the plan and the seed.
func ParsePlan(s string) (FaultPlan, int64, error) {
	var p FaultPlan
	seed := int64(1)
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return p, 0, fmt.Errorf("chaos: %q is not key=value", kv)
		}
		switch k {
		case "rate", "panic":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return p, 0, fmt.Errorf("chaos: %s must be a probability in [0,1], got %q", k, v)
			}
			if k == "rate" {
				p.Rate = f
			} else {
				p.PanicRate = f
			}
		case "lat":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return p, 0, fmt.Errorf("chaos: lat must be a non-negative duration, got %q", v)
			}
			p.Latency = d
		case "codes":
			for _, c := range strings.Split(v, "|") {
				n, err := strconv.Atoi(c)
				if err != nil || n < 100 || n > 599 {
					return p, 0, fmt.Errorf("chaos: codes must be HTTP statuses (100..599), got %q", c)
				}
				p.Codes = append(p.Codes, n)
			}
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return p, 0, fmt.Errorf("chaos: seed must be an integer, got %q", v)
			}
			seed = n
		default:
			return p, 0, fmt.Errorf("chaos: unknown key %q (rate, panic, lat, codes, seed)", k)
		}
	}
	if p.Rate+p.PanicRate > 1 {
		return p, 0, fmt.Errorf("chaos: rate+panic exceed 1 (%g)", p.Rate+p.PanicRate)
	}
	return p, seed, nil
}
