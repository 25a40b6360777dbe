package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Kind
	}{
		{New(Transient, "op", errors.New("blip")), Transient},
		{New(Permanent, "op", errors.New("bad input")), Permanent},
		{New(Timeout, "op", errors.New("slow")), Timeout},
		{NewPanicError("op", "boom", nil), Panic},
		{fmt.Errorf("wrapped: %w", New(Permanent, "op", errors.New("x"))), Permanent},
		{errors.New("plain"), Transient}, // unrecognized defaults to Transient
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryable(t *testing.T) {
	if !Retryable(errors.New("plain")) {
		t.Error("plain errors should be retryable")
	}
	if !Retryable(New(Timeout, "", errors.New("slow"))) {
		t.Error("timeouts should be retryable")
	}
	if Retryable(New(Permanent, "", errors.New("bad"))) {
		t.Error("permanent errors must not be retryable")
	}
	if Retryable(NewPanicError("", "boom", nil)) {
		t.Error("panics must not be retryable")
	}
	if Retryable(ErrBreakerOpen) {
		t.Error("breaker denials must not be retryable")
	}
	if Retryable(fmt.Errorf("deny: %w", ErrBreakerOpen)) {
		t.Error("wrapped breaker denials must not be retryable")
	}
}

func TestErrorText(t *testing.T) {
	e := New(Transient, "udf:sentiment", errors.New("503"))
	if got := e.Error(); got != "udf:sentiment: transient: 503" {
		t.Errorf("Error() = %q", got)
	}
	var target *Error
	if !errors.As(fmt.Errorf("w: %w", e), &target) || target.Kind != Transient {
		t.Error("errors.As should unwrap to the typed error")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Seed: 42}
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := p.Backoff(7, attempt)
		d2 := p.Backoff(7, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		// Raw exponential value before jitter, capped.
		raw := time.Millisecond << (attempt - 1)
		if raw > 8*time.Millisecond {
			raw = 8 * time.Millisecond
		}
		if d1 < raw/2 || d1 >= raw+raw/2 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d1, raw/2, raw+raw/2)
		}
	}
	if p.Backoff(7, 3) == p.Backoff(8, 3) {
		t.Error("different keys should (overwhelmingly) jitter differently")
	}
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxAttempts: 5,
		Sleep:       func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}
	calls := 0
	v, attempts, err := Do(context.Background(), p, 1, func(context.Context) (bool, error) {
		calls++
		if calls < 3 {
			return false, New(Transient, "t", errors.New("blip"))
		}
		return true, nil
	})
	if err != nil || !v || attempts != 3 || calls != 3 {
		t.Fatalf("got v=%v attempts=%d calls=%d err=%v, want success on attempt 3", v, attempts, calls, err)
	}
	if len(slept) != 2 {
		t.Errorf("slept %d backoffs, want 2", len(slept))
	}
}

func TestDoPermanentFailsImmediately(t *testing.T) {
	calls := 0
	_, attempts, err := Do(context.Background(), Policy{MaxAttempts: 5}, 1, func(context.Context) (bool, error) {
		calls++
		return false, New(Permanent, "t", errors.New("bad input"))
	})
	if calls != 1 || attempts != 1 {
		t.Errorf("permanent error retried: calls=%d attempts=%d", calls, attempts)
	}
	if Classify(err) != Permanent {
		t.Errorf("err = %v, want permanent", err)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	_, attempts, err := Do(context.Background(), p, 1, func(context.Context) (bool, error) {
		calls++
		return false, errors.New("always")
	})
	if calls != 3 || attempts != 3 {
		t.Errorf("calls=%d attempts=%d, want 3", calls, attempts)
	}
	if err == nil || Classify(err) != Transient {
		t.Errorf("err = %v, want the final transient error", err)
	}
}

func TestDoCancelledDuringBackoffReturnsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{
		MaxAttempts: 5,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel() // the context ends mid-backoff
			return ctx.Err()
		},
	}
	_, _, err := Do(ctx, p, 1, func(context.Context) (bool, error) {
		return false, errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want raw context.Canceled (batch abort, not row failure)", err)
	}
	var re *Error
	if errors.As(err, &re) {
		t.Fatalf("cancellation must not be wrapped in a typed failure: %v", err)
	}
}

// errCounter is a live, cancellable context that counts its Err calls; on
// Go 1.24 each one locks the context's mutex.
type errCounter struct {
	context.Context
	errs atomic.Int64
}

func (c *errCounter) Err() error {
	c.errs.Add(1)
	return c.Context.Err()
}

// TestDoSuccessNeverAsksErr pins the per-row retry loop at no lock: a
// successful attempt under a live context makes no ctx.Err() call, and
// after a cancel no attempt starts.
func TestDoSuccessNeverAsksErr(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &errCounter{Context: parent}
	for row := range 1000 {
		if v, attempts, err := Do(ctx, Policy{}, uint64(row), func(context.Context) (bool, error) { return row%2 == 0, nil }); err != nil || attempts != 1 || v != (row%2 == 0) {
			t.Fatalf("row %d: Do = (%v, %d, %v)", row, v, attempts, err)
		}
	}
	if got := ctx.errs.Load(); got != 0 {
		t.Fatalf("%d ctx.Err() calls on the success path, want 0", got)
	}
	cancel()
	_, attempts, err := Do(ctx, Policy{}, 1, func(context.Context) (bool, error) {
		t.Fatal("an attempt started after the cancel")
		return false, nil
	})
	if !errors.Is(err, context.Canceled) || attempts != 0 {
		t.Fatalf("after cancel: attempts %d, err %v; want 0 and context.Canceled", attempts, err)
	}
}

// TestDoCallTimeoutClassifiedRetryable: an attempt that outlives its
// per-call deadline is a typed, retryable Timeout, not a batch abort. Seed
// it catches: an untyped error on Bound's timeout paths.
func TestDoCallTimeoutClassifiedRetryable(t *testing.T) {
	p := Policy{
		MaxAttempts: 2,
		CallTimeout: 5 * time.Millisecond,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
	// Atomic: the body runs on the call-timeout watchdog's goroutine, which
	// the bounded attempt abandons when the deadline fires — the final read
	// here has no happens-before edge with the increment.
	var calls atomic.Int32
	attempt := p.Bound(func(ctx context.Context, _ int) (bool, error) {
		calls.Add(1)
		<-ctx.Done() // body honors its per-attempt deadline
		return false, ctx.Err()
	})
	_, attempts, err := Do(context.Background(), p, 1, func(ctx context.Context) (bool, error) {
		return attempt(ctx, 1)
	})
	if attempts != 2 || calls.Load() != 2 {
		t.Errorf("attempts=%d calls=%d, want the timeout retried once", attempts, calls.Load())
	}
	if Classify(err) != Timeout {
		t.Errorf("err = %v, want a typed timeout", err)
	}
	// The parent context is intact: the timeout must not surface as a
	// context error (callers treat those as batch aborts).
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("per-call timeout leaked as a context error: %v", err)
	}
}

func TestDoParentCancelBeatsCallTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 3, CallTimeout: time.Minute}
	attempt := p.Bound(func(ctx context.Context, _ int) (bool, error) {
		cancel()
		<-ctx.Done()
		return false, ctx.Err()
	})
	_, _, err := Do(ctx, p, 1, func(ctx context.Context) (bool, error) {
		return attempt(ctx, 1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// drive pushes a scripted outcome sequence through the breaker the way a
// gated batch of one-item segments does: Plan one item, then Record it if
// admitted.
func drive(b *Breaker, outcomes []bool) (admitted, denied int) {
	for _, failed := range outcomes {
		if b.Plan(1)[0] {
			admitted++
			b.Record([]bool{failed})
		} else {
			denied++
		}
	}
	return
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	cfg := BreakerConfig{Window: 8, MinCalls: 4, FailureRate: 0.5, Cooldown: 6, Probes: 2}
	b := NewBreaker(cfg)
	if b.State() != BreakerClosed {
		t.Fatal("new breaker should be closed")
	}

	// Four straight failures reach MinCalls at 100% failure rate: trip.
	drive(b, []bool{true, true, true, true})
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state=%v trips=%d, want open after the window fills with failures", b.State(), b.Trips())
	}

	// The cooldown is counted in denials. 6 denials, then probes.
	_, denied := drive(b, make([]bool, 6))
	if denied != 6 {
		t.Fatalf("denied %d during cooldown, want 6", denied)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state=%v, want half-open after the cooldown elapses", b.State())
	}

	// Both probes succeed: closed again.
	admitted, _ := drive(b, []bool{false, false})
	if admitted != 2 || b.State() != BreakerClosed {
		t.Fatalf("admitted=%d state=%v, want 2 successful probes to close", admitted, b.State())
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	cfg := BreakerConfig{Window: 8, MinCalls: 2, FailureRate: 0.5, Cooldown: 2, Probes: 2}
	b := NewBreaker(cfg)
	drive(b, []bool{true, true}) // trip
	drive(b, make([]bool, 2))    // cooldown
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state=%v, want half-open", b.State())
	}
	drive(b, []bool{true}) // failed probe
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("state=%v trips=%d, want re-opened on probe failure", b.State(), b.Trips())
	}
}

func TestBreakerHalfOpenAdmitsOnlyProbes(t *testing.T) {
	cfg := BreakerConfig{Window: 8, MinCalls: 2, FailureRate: 0.5, Cooldown: 1, Probes: 2}
	b := NewBreaker(cfg)
	drive(b, []bool{true, true}) // trip
	b.Plan(1)                    // cooldown elapses; next plan is half-open
	allowed := b.Plan(5)
	admits := 0
	for _, a := range allowed {
		if a {
			admits++
		}
	}
	if admits != 2 {
		t.Fatalf("half-open admitted %d of 5, want exactly Probes=2", admits)
	}
}

func TestBreakerSegmentArmsOnFirstFailure(t *testing.T) {
	b := NewBreaker(BreakerConfig{Segment: 16})
	if got := b.Segment(); got != 0 {
		t.Fatalf("Segment() = %d before any failure, want 0 (unsegmented fast path)", got)
	}
	b.Plan(1)
	b.Record([]bool{false})
	if got := b.Segment(); got != 0 {
		t.Fatalf("Segment() = %d after a success, want 0", got)
	}
	b.Plan(1)
	b.Record([]bool{true})
	if got := b.Segment(); got != 16 {
		t.Fatalf("Segment() = %d after a failure, want the configured 16", got)
	}
}

func TestBreakerSlidingWindowEviction(t *testing.T) {
	// Window 4, 50% rate: two old failures must age out and not trip the
	// breaker once fresh successes displace them.
	cfg := BreakerConfig{Window: 4, MinCalls: 4, FailureRate: 0.75}
	b := NewBreaker(cfg)
	drive(b, []bool{true, true, false, false, false, false})
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v, want closed: aged-out failures must not count", b.State())
	}
}

// TestBreakerSegmentFoldEqualsRowByRow: folding a segment's outcomes with
// one Record call is folding them one by one. Two breakers under the same
// config see the same seeded segments — random widths, random outcomes for
// the admitted items — one folding each segment at once, the other item by
// item; their plans, State, Trips and Segment() must agree after every
// segment. Small windows and cooldowns make every seed cycle through open
// and half-open, so the per-item rules (a half-open failure re-trips, open
// ignores stragglers) are exercised mid-segment.
func TestBreakerSegmentFoldEqualsRowByRow(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		draw := func(stream uint64, n int) int { return int(stats.Mix64(seed^stats.Mix64(stream)) % uint64(n)) }
		cfg := BreakerConfig{
			Window: 4 + draw(1, 12), MinCalls: 2 + draw(2, 3), FailureRate: 0.3 + float64(draw(3, 5))/10,
			Cooldown: 1 + draw(4, 20), Probes: 1 + draw(5, 4), Segment: 1 + draw(6, 16),
		}
		failPct := 30 + draw(7, 60)
		bySegment, byRow := NewBreaker(cfg), NewBreaker(cfg)
		var stream uint64 = 100
		halfOpen := false
		for seg := 0; seg < 200; seg++ {
			width := 1 + draw(stream, 40)
			stream++
			plan, rowPlan := bySegment.Plan(width), byRow.Plan(width)
			halfOpen = halfOpen || bySegment.State() == BreakerHalfOpen
			var outcomes []bool
			for i, ok := range plan {
				if ok != rowPlan[i] {
					t.Fatalf("seed %d segment %d: plans diverge at item %d", seed, seg, i)
				}
				if ok {
					outcomes = append(outcomes, draw(stream, 100) < failPct)
					stream++
				}
			}
			bySegment.Record(outcomes)
			for _, failed := range outcomes {
				byRow.Record([]bool{failed})
			}
			if bySegment.State() != byRow.State() || bySegment.Trips() != byRow.Trips() || bySegment.Segment() != byRow.Segment() {
				t.Fatalf("seed %d segment %d: per-segment fold (%v, %d trips, segment %d) != row-by-row fold (%v, %d trips, segment %d)",
					seed, seg, bySegment.State(), bySegment.Trips(), bySegment.Segment(), byRow.State(), byRow.Trips(), byRow.Segment())
			}
		}
		if bySegment.Trips() < 2 || !halfOpen {
			t.Fatalf("seed %d: %d trips, half-open reached %t (cfg %+v, %d%% failures) — the scenario misses the open/half-open cycle", seed, bySegment.Trips(), halfOpen, cfg, failPct)
		}
	}
}

func TestChaosDeterministicSchedule(t *testing.T) {
	cfg := ChaosConfig{Seed: 99, ErrorRate: 0.3}
	run := func() []bool {
		c := NewChaos(cfg)
		body := c.Wrap(func(_ context.Context, _ any) (bool, error) { return true, nil })
		var fails []bool
		for v := 0; v < 200; v++ {
			_, err := body(context.Background(), v)
			fails = append(fails, err != nil)
		}
		return fails
	}
	a, b := run(), run()
	failures := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("value %d: schedules diverge across identical runs", i)
		}
		if a[i] {
			failures++
		}
	}
	if failures < 30 || failures > 90 {
		t.Errorf("%d/200 injected failures at rate 0.3 — schedule looks mis-scaled", failures)
	}
}

func TestChaosFailAttempts(t *testing.T) {
	c := NewChaos(ChaosConfig{Seed: 1, FailAttempts: 2})
	body := c.Wrap(func(_ context.Context, _ any) (bool, error) { return true, nil })
	for attempt := 1; attempt <= 3; attempt++ {
		v, err := body(context.Background(), "someval")
		if attempt <= 2 && err == nil {
			t.Fatalf("attempt %d: want injected failure", attempt)
		}
		if attempt == 3 && (err != nil || !v) {
			t.Fatalf("attempt 3: want the real body's verdict, got v=%v err=%v", v, err)
		}
	}
}

func TestChaosPanicIsPerValuePersistent(t *testing.T) {
	c := NewChaos(ChaosConfig{Seed: 5, PanicRate: 0.2})
	body := c.Wrap(func(_ context.Context, _ any) (bool, error) { return true, nil })
	call := func(v any) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		_, _ = body(context.Background(), v)
		return false
	}
	anyPanic := false
	for v := 0; v < 100; v++ {
		first := call(v)
		for rep := 0; rep < 3; rep++ {
			if call(v) != first {
				t.Fatalf("value %d: panic affliction not persistent across attempts", v)
			}
		}
		anyPanic = anyPanic || first
	}
	if !anyPanic {
		t.Error("no value panicked at rate 0.2 over 100 values")
	}
}

func TestMix64AndHashString(t *testing.T) {
	if stats.Mix64(1) == stats.Mix64(2) {
		t.Error("Mix64 collision on adjacent inputs")
	}
	if HashString("a") != HashString("a") || HashString("a") == HashString("b") {
		t.Error("HashString must be stable and discriminating")
	}
}
