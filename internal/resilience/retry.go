package resilience

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/stats"
)

// Policy tunes retry behavior for one class of invocations. The zero value
// is usable: every knob falls back to the documented default.
type Policy struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 3). 1 disables retries.
	MaxAttempts int
	// CallTimeout bounds each attempt (0 = unbounded). Bound applies it,
	// wrapping an attempt function once; Do does not, so Do's attempt
	// never leaves the caller's goroutine (nor its closure the stack). The
	// deadline is cooperative — the attempt's context is cancelled and the
	// attempt is abandoned; bodies that honor their context return
	// promptly, bodies that don't leak a goroutine until they finish on
	// their own.
	CallTimeout time.Duration
	// BaseBackoff is the delay before the second attempt (default 1ms);
	// each further attempt doubles it, capped at MaxBackoff (default 50ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the deterministic jitter. Jitter is a pure hash of
	// (Seed, key, attempt) — no shared RNG stream — so backoff schedules
	// are identical regardless of how workers interleave.
	Seed uint64
	// Sleep replaces the ctx-aware backoff sleep in tests (nil = real
	// timer). It must return ctx.Err() promptly if ctx ends mid-sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

func (p Policy) baseBackoff() time.Duration {
	if p.BaseBackoff <= 0 {
		return time.Millisecond
	}
	return p.BaseBackoff
}

func (p Policy) maxBackoff() time.Duration {
	if p.MaxBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return p.MaxBackoff
}

// Backoff returns the delay inserted before attempt+1 (attempt counts from
// 1): capped exponential growth scaled by a deterministic jitter factor in
// [0.5, 1.5) hashed from (Seed, key, attempt).
func (p Policy) Backoff(key uint64, attempt int) time.Duration {
	d := p.baseBackoff()
	for i := 1; i < attempt && d < p.maxBackoff(); i++ {
		d *= 2
	}
	if d > p.maxBackoff() {
		d = p.maxBackoff()
	}
	h := stats.Mix64(p.Seed ^ stats.Mix64(key) ^ stats.Mix64(uint64(attempt)))
	frac := float64(h>>11) / float64(uint64(1)<<53)
	return time.Duration(float64(d) * (0.5 + frac))
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do invokes fn under the policy: up to MaxAttempts attempts, retrying
// only errors Retryable reports worth it, sleeping the jittered backoff
// between attempts. key identifies the logical call (e.g. a hash of the
// UDF name and row) so its jitter schedule is stable across runs.
//
// fn runs on the calling goroutine and is never retained, so a closure
// passed here can live on the caller's stack. Do applies no per-attempt
// deadline: a caller that wants CallTimeout builds fn from an attempt
// wrapped once with Bound.
//
// It returns the verdict, the number of attempts made, and the final
// error. A context that ends mid-attempt or mid-backoff surfaces as
// ctx.Err() promptly — the full backoff is never slept out — which callers
// must treat as a batch abort, not a row failure. Do polls ctx.Done()
// before each attempt, which takes no lock, and calls ctx.Err() only once
// the context has ended, so its success path never calls it.
func Do(ctx context.Context, p Policy, key uint64, fn func(ctx context.Context) (bool, error)) (bool, int, error) {
	done := ctx.Done()
	attempts := 0
	for {
		if ended(done) {
			return false, attempts, ctx.Err()
		}
		attempts++
		v, err := fn(ctx)
		if err == nil {
			return v, attempts, nil
		}
		if ended(done) {
			return false, attempts, ctx.Err()
		}
		if !Retryable(err) || attempts >= p.maxAttempts() {
			return false, attempts, err
		}
		if serr := p.sleep(ctx, p.Backoff(key, attempts)); serr != nil {
			return false, attempts, serr
		}
	}
}

// ended reports, without taking the context's lock, whether done — a
// context's Done channel — is closed. A nil channel never closes.
func ended(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Bound returns attempt under the per-call deadline CallTimeout, or
// attempt itself when there is none. Build it once and call it from each
// Do attempt. Each bounded call runs attempt on a watchdog goroutine with
// a context that expires after CallTimeout; an abandoned timed-out attempt
// keeps running there but its result is discarded. attempt must therefore
// recover its own panics: one raised on the watchdog goroutine reaches no
// recover on the caller's.
//
// An attempt that outlives its deadline — returning the deadline's error,
// or not returning in time — is a retryable Timeout, never the raw context
// error (callers treat those as a batch abort). The parent context's own
// end is returned raw.
func (p Policy) Bound(attempt func(ctx context.Context, item int) (bool, error)) func(ctx context.Context, item int) (bool, error) {
	d := p.CallTimeout
	if d <= 0 {
		return attempt
	}
	type result struct {
		v   bool
		err error
	}
	return func(ctx context.Context, item int) (bool, error) {
		cctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		ch := make(chan result, 1)
		go func() {
			v, err := attempt(cctx, item)
			ch <- result{v, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil && cctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
				return false, &Error{Kind: Timeout, Err: fmt.Errorf("call exceeded %v", d)}
			}
			return r.v, r.err
		case <-cctx.Done():
			if err := ctx.Err(); err != nil {
				return false, err
			}
			return false, &Error{Kind: Timeout, Err: fmt.Errorf("call exceeded %v (abandoned)", d)}
		}
	}
}

// HashString hashes a string to a stable 64-bit key (FNV-1a finished with
// stats.Mix64), for keying retry jitter and chaos schedules by value.
func HashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return stats.Mix64(h.Sum64())
}
