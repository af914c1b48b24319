package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func fakeClock() *FakeClock {
	return NewFakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

// --- Injector ---

// schedule drains n decisions from one site as a compact string.
func schedule(in *Injector, site string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		f := in.Evaluate(site)
		switch {
		case !f.Inject:
			out += "."
		case f.Panic:
			out += "P"
		case f.Err != nil:
			out += "E"
		default:
			out += "L"
		}
	}
	return out
}

func TestInjectorDeterministicSchedule(t *testing.T) {
	plan := FaultPlan{Rate: 0.3, PanicRate: 0.1, Codes: []int{500, 503}}
	mk := func(seed int64) *Injector {
		in := NewInjector(seed).WithClock(fakeClock())
		in.Arm(SiteHTTP, plan)
		in.Arm(SiteSimulate, plan)
		return in
	}
	a, b := mk(42), mk(42)
	if got, want := schedule(a, SiteHTTP, 200), schedule(b, SiteHTTP, 200); got != want {
		t.Fatalf("same seed, different schedules:\n%s\n%s", got, want)
	}
	// Per-site streams are independent: interleaving evaluations of another
	// site must not perturb a site's schedule.
	c := mk(42)
	var interleaved string
	for i := 0; i < 200; i++ {
		c.Evaluate(SiteSimulate)
		interleaved += schedule(c, SiteHTTP, 1)
	}
	if want := schedule(mk(42), SiteHTTP, 200); interleaved != want {
		t.Fatalf("interleaved site evaluations perturbed the schedule")
	}
	// A different seed gives a different schedule.
	if schedule(mk(42), SiteHTTP, 200) == schedule(mk(43), SiteHTTP, 200) {
		t.Fatalf("seeds 42 and 43 yielded identical 200-step schedules")
	}
}

func TestInjectorSequence(t *testing.T) {
	in := NewInjector(1).WithClock(fakeClock())
	in.Arm("site", FaultPlan{
		Seq:     []FaultKind{KindError, KindNone, KindPanic, KindLatency},
		Latency: 5 * time.Millisecond,
		Codes:   []int{503},
	})
	if got := schedule(in, "site", 5); got != "E.PL." {
		t.Fatalf("scripted schedule = %q, want E.PL. (rate 0 after Seq)", got)
	}
}

func TestInjectorInject(t *testing.T) {
	clk := fakeClock()
	in := NewInjector(1).WithClock(clk)
	in.Arm("s", FaultPlan{Seq: []FaultKind{KindLatency, KindError, KindPanic}, Latency: 50 * time.Millisecond, Codes: []int{500}})

	if err := in.Inject(context.Background(), "s"); err != nil {
		t.Fatalf("latency-only fault returned error: %v", err)
	}
	if clk.Slept() != 50*time.Millisecond {
		t.Fatalf("slept %v, want 50ms", clk.Slept())
	}
	err := in.Inject(context.Background(), "s")
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Code != 500 {
		t.Fatalf("error fault = %v, want InjectedError code 500", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("panic fault did not panic")
			}
		}()
		in.Inject(context.Background(), "s") //nolint:errcheck // panics
	}()

	// Unarmed site and nil injector are no-ops.
	if err := in.Inject(context.Background(), "other"); err != nil {
		t.Fatalf("unarmed site injected: %v", err)
	}
	var nilInj *Injector
	if f := nilInj.Evaluate("s"); f.Inject {
		t.Fatalf("nil injector injected")
	}
	if err := nilInj.Inject(context.Background(), "s"); err != nil {
		t.Fatalf("nil injector Inject = %v", err)
	}
}

// TestRateOnlyPlanInjectsErrors: a plan that sets only Rate injects error
// faults with the default *InjectedError, as ParsePlan's "rate" promises;
// Rate with Latency and no Codes or Err stays latency-only.
func TestRateOnlyPlanInjectsErrors(t *testing.T) {
	clk := fakeClock()
	in := NewInjector(1).WithClock(clk)
	in.Arm("errors", FaultPlan{Rate: 1})
	in.Arm("latency", FaultPlan{Rate: 1, Latency: 20 * time.Millisecond})

	if got := schedule(in, "errors", 4); got != "EEEE" {
		t.Fatalf("rate-only schedule = %q, want EEEE", got)
	}
	err := in.Inject(context.Background(), "errors")
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Site != "errors" || ie.Code != 0 {
		t.Fatalf("rate-only fault = %v, want the default InjectedError at site errors", err)
	}
	if clk.Slept() != 0 {
		t.Fatalf("rate-only fault slept %v, want no latency", clk.Slept())
	}

	if got := schedule(in, "latency", 4); got != "LLLL" {
		t.Fatalf("rate+latency schedule = %q, want LLLL", got)
	}
	if err := in.Inject(context.Background(), "latency"); err != nil {
		t.Fatalf("rate+latency fault returned error %v, want latency only", err)
	}
	if clk.Slept() != 20*time.Millisecond {
		t.Fatalf("rate+latency fault slept %v, want 20ms", clk.Slept())
	}
}

func TestInjectorMetrics(t *testing.T) {
	in := NewInjector(1).WithClock(fakeClock())
	in.Arm("s", FaultPlan{Seq: []FaultKind{KindError, KindNone}, Codes: []int{500}})
	schedule(in, "s", 2)
	snap := in.Metrics().Snapshot()
	if got := snap.Get("chaos.s.evaluations"); got != 2 {
		t.Fatalf("evaluations = %d, want 2", got)
	}
	if got := snap.Get("chaos.s.injected"); got != 1 {
		t.Fatalf("injected = %d, want 1", got)
	}
}

func TestParsePlan(t *testing.T) {
	plan, seed, err := ParsePlan("rate=0.2, lat=50ms, codes=500|503, panic=0.01, seed=7")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if plan.Rate != 0.2 || plan.PanicRate != 0.01 || plan.Latency != 50*time.Millisecond || seed != 7 {
		t.Fatalf("plan = %+v seed %d", plan, seed)
	}
	if len(plan.Codes) != 2 || plan.Codes[0] != 500 || plan.Codes[1] != 503 {
		t.Fatalf("codes = %v", plan.Codes)
	}
	if _, seed, err := ParsePlan("rate=1"); err != nil || seed != 1 {
		t.Fatalf("default seed = %d err %v, want 1 <nil>", seed, err)
	}
	for _, bad := range []string{
		"rate=2", "rate=x", "lat=-1s", "codes=99", "codes=abc",
		"seed=x", "unknown=1", "rate", "rate=0.6,panic=0.6",
	} {
		if _, _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// --- Retry ---

func TestRetrySucceedsAfterFailures(t *testing.T) {
	clk := fakeClock()
	calls := 0
	got, err := Do(context.Background(), RetryPolicy{MaxAttempts: 5, Clock: clk},
		func(context.Context) (int, error) {
			calls++
			if calls < 3 {
				return 0, fmt.Errorf("transient %d", calls)
			}
			return 99, nil
		})
	if err != nil || got != 99 || calls != 3 {
		t.Fatalf("got %d err %v calls %d", got, err, calls)
	}
	if clk.Slept() <= 0 {
		t.Fatalf("no backoff slept")
	}
}

func TestRetryNonRetryableStopsImmediately(t *testing.T) {
	calls := 0
	fatal := errors.New("fatal")
	err := Retry(context.Background(), RetryPolicy{
		MaxAttempts: 5, Clock: fakeClock(),
		Retryable: func(err error) bool { return !errors.Is(err, fatal) },
	}, func(context.Context) error { calls++; return fatal })
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("err %v calls %d, want fatal after 1 call", err, calls)
	}
}

func TestRetryAttemptsExhausted(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := Retry(context.Background(), RetryPolicy{MaxAttempts: 3, Clock: fakeClock()},
		func(context.Context) error { calls++; return boom })
	if calls != 3 || !errors.Is(err, boom) {
		t.Fatalf("calls %d err %v, want 3 attempts wrapping boom", calls, err)
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	clk := fakeClock()
	hint := 3 * time.Second
	calls := 0
	err := Retry(context.Background(), RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Clock: clk,
		RetryAfter: func(error) (time.Duration, bool) { return hint, true },
	}, func(context.Context) error {
		calls++
		if calls == 1 {
			return errors.New("throttled")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if clk.Slept() < hint {
		t.Fatalf("slept %v, want >= %v (the server hint)", clk.Slept(), hint)
	}
}

func TestRetryTimeBudget(t *testing.T) {
	clk := fakeClock()
	calls := 0
	err := Retry(context.Background(), RetryPolicy{
		MaxAttempts: 100, BaseDelay: time.Second, MaxDelay: time.Second,
		MaxElapsed: 2500 * time.Millisecond, Clock: clk,
		RetryAfter: func(error) (time.Duration, bool) { return time.Second, true },
	}, func(context.Context) error { calls++; return errors.New("always") })
	if err == nil || calls >= 100 {
		t.Fatalf("budget did not stop the loop (calls %d err %v)", calls, err)
	}
}

func TestRetryContextCanceledDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	calls := 0
	// The wall clock sleeps for real here; cancel mid-sleep and require a
	// prompt return carrying both the last error and the context error.
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := Retry(ctx, RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second,
		RetryAfter: func(error) (time.Duration, bool) { return 10 * time.Second, true }},
		func(context.Context) error { calls++; return boom })
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation did not interrupt the sleep (%v)", elapsed)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want both context.Canceled and boom", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestRetryContextErrorNotRetried(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryPolicy{MaxAttempts: 5, Clock: fakeClock()},
		func(context.Context) error { calls++; return context.DeadlineExceeded })
	if calls != 1 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("calls %d err %v, want 1 call", calls, err)
	}
}

func TestRetryDeterministicDelays(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		var out []time.Duration
		Retry(context.Background(), RetryPolicy{ //nolint:errcheck
			MaxAttempts: 6, Seed: seed, Clock: fakeClock(),
			OnRetry: func(_ int, d time.Duration, _ error) { out = append(out, d) },
		}, func(context.Context) error { return errors.New("x") })
		return out
	}
	a, b := delays(9), delays(9)
	if len(a) != 5 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different delays: %v vs %v", a, b)
	}
}

// --- Breaker ---

func newTestBreaker(clk Clock, transitions *[]string) *Breaker {
	return NewBreaker(BreakerConfig{
		Window: 8, MinSamples: 4, FailureRatio: 0.5,
		Cooldown: 10 * time.Second, ProbeSuccesses: 2, Clock: clk,
		OnTransition: func(from, to BreakerState) {
			*transitions = append(*transitions, fmt.Sprintf("%s->%s", from, to))
		},
	})
}

func record(t *testing.T, b *Breaker, outcome error) {
	t.Helper()
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow rejected while %v: %v", b.State(), err)
	}
	done(outcome)
}

func TestBreakerLifecycle(t *testing.T) {
	clk := fakeClock()
	var trans []string
	b := newTestBreaker(clk, &trans)
	boom := errors.New("boom")

	// Failures below MinSamples keep it closed; crossing the ratio trips.
	record(t, b, boom)
	record(t, b, boom)
	record(t, b, nil)
	if b.State() != Closed {
		t.Fatalf("tripped below MinSamples")
	}
	record(t, b, boom)
	if b.State() != Open {
		t.Fatalf("state = %v, want open at 3/4 failures", b.State())
	}

	// Open: rejected with ErrOpen and a retry hint.
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker admitted (err %v)", err)
	}
	var oe *OpenError
	_, err := b.Allow()
	if !errors.As(err, &oe) || oe.RetryIn <= 0 {
		t.Fatalf("rejection carries no retry hint: %v", err)
	}

	// After cooldown: one probe at a time.
	clk.Advance(10 * time.Second)
	done1, err := b.Allow()
	if err != nil {
		t.Fatalf("post-cooldown probe rejected: %v", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe admitted")
	}
	// Probe failure reopens and restarts the cooldown.
	done1(boom)
	if b.State() != Open {
		t.Fatalf("probe failure did not reopen")
	}

	// Next window: two probe successes close it.
	clk.Advance(10 * time.Second)
	record(t, b, nil)
	if b.State() != HalfOpen {
		t.Fatalf("one probe success closed early")
	}
	record(t, b, nil)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after %d probe successes", b.State(), 2)
	}

	want := "closed->open open->half-open half-open->open open->half-open half-open->closed"
	if got := fmt.Sprint(trans); got != "["+want+"]" {
		t.Fatalf("transitions = %v, want %s", trans, want)
	}

	// The window was reset on close: old failures are forgotten.
	record(t, b, boom)
	record(t, b, boom)
	record(t, b, nil)
	if b.State() != Closed {
		t.Fatalf("window not reset after close")
	}
}

func TestBreakerIgnoreOutcome(t *testing.T) {
	clk := fakeClock()
	var trans []string
	b := newTestBreaker(clk, &trans)
	// Ignored outcomes never trip the breaker.
	for i := 0; i < 20; i++ {
		record(t, b, Ignore)
	}
	if b.State() != Closed {
		t.Fatalf("ignored outcomes tripped the breaker")
	}
	// An ignored probe releases the probe slot without closing or reopening.
	boom := errors.New("boom")
	for i := 0; i < 4; i++ {
		record(t, b, boom)
	}
	clk.Advance(10 * time.Second)
	record(t, b, Ignore)
	if b.State() != HalfOpen {
		t.Fatalf("ignored probe changed state to %v", b.State())
	}
	record(t, b, nil)
	record(t, b, nil)
	if b.State() != Closed {
		t.Fatalf("probes after an ignored probe did not close")
	}
}

func TestBreakerStragglerAfterTrip(t *testing.T) {
	clk := fakeClock()
	var trans []string
	b := newTestBreaker(clk, &trans)
	boom := errors.New("boom")
	// Admit a call while closed, then trip, then let the straggler finish:
	// its outcome must not pollute the half-open probe accounting.
	doneStraggler, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow: %v", err)
	}
	for i := 0; i < 4; i++ {
		record(t, b, boom)
	}
	if b.State() != Open {
		t.Fatalf("not open")
	}
	clk.Advance(10 * time.Second)
	doneProbe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	doneStraggler(boom) // must be ignored, not treated as the probe failing
	if b.State() != HalfOpen {
		t.Fatalf("straggler outcome moved state to %v", b.State())
	}
	doneProbe(nil)
	record(t, b, nil)
	if b.State() != Closed {
		t.Fatalf("probe successes did not close (state %v)", b.State())
	}
}

func TestBreakerNilAndDoneIdempotent(t *testing.T) {
	var b *Breaker
	done, err := b.Allow()
	if err != nil || b.State() != Closed {
		t.Fatalf("nil breaker rejected")
	}
	done(errors.New("x")) // no-op

	clk := fakeClock()
	var trans []string
	real := newTestBreaker(clk, &trans)
	d, err := real.Allow()
	if err != nil {
		t.Fatalf("Allow: %v", err)
	}
	boom := errors.New("boom")
	d(boom)
	d(boom) // second call must not double-count
	d(boom)
	for i := 0; i < 2; i++ {
		record(t, real, nil)
	}
	record(t, real, boom)
	// 2 failures / 4 outcomes = exactly the 0.5 ratio -> trips; had done()
	// triple-counted, it would have tripped earlier with 3/3.
	if real.State() != Open {
		t.Fatalf("state = %v, want open at ratio threshold", real.State())
	}
}
