package resilience

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
)

// ChaosConfig describes a seeded fault schedule for exercising retry,
// breaker and degradation behavior. Every decision is a pure hash of
// (Seed, value, per-value attempt index), so at a fixed seed the same
// values fail on the same attempts regardless of worker interleaving.
//
// The determinism contract additionally assumes the wrapped column's
// values are distinct per row (ids, typically): two rows sharing a value
// share an attempt counter, so their retry schedules would interleave
// scheduling-dependently.
type ChaosConfig struct {
	// Seed drives every hash draw.
	Seed uint64
	// ErrorRate is the per-attempt probability of an injected transient
	// error.
	ErrorRate float64
	// PanicRate is the per-VALUE probability of a panicking body: an
	// afflicted value panics on every attempt (panics are classified
	// non-retryable, so this models a persistent crash bug).
	PanicRate float64
	// LatencyRate / Latency inject a ctx-aware sleep on a fraction of
	// attempts. Latency alone never changes outcomes; combined with a
	// per-call timeout it produces Timeout errors.
	LatencyRate float64
	Latency     time.Duration
	// FailAttempts, when positive, makes the first FailAttempts attempts of
	// EVERY value fail transiently — a deterministic retry exerciser.
	FailAttempts int
}

// Chaos wraps fallible UDF bodies with the configured fault schedule. It
// is the shared fault fixture of the tests of this package, the engine,
// the public API and the query server; no command wires it in.
type Chaos struct {
	cfg ChaosConfig

	mu       sync.Mutex
	attempts map[uint64]int
}

// NewChaos builds a chaos injector.
func NewChaos(cfg ChaosConfig) *Chaos {
	return &Chaos{cfg: cfg, attempts: make(map[uint64]int)}
}

// draw maps a (stream, key, attempt) triple to a uniform [0,1) value.
func (c *Chaos) draw(stream, key uint64, attempt int) float64 {
	h := stats.Mix64(c.cfg.Seed ^ stats.Mix64(stream) ^ stats.Mix64(key) ^ stats.Mix64(uint64(attempt)))
	return float64(h>>11) / float64(uint64(1)<<53)
}

// nextAttempt returns the 1-based attempt index for the value key.
func (c *Chaos) nextAttempt(key uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts[key]++
	return c.attempts[key]
}

// Wrap layers the fault schedule over a fallible value-level body. The
// value's canonical string rendering keys its schedule.
func (c *Chaos) Wrap(fn func(ctx context.Context, v any) (bool, error)) func(ctx context.Context, v any) (bool, error) {
	return func(ctx context.Context, v any) (bool, error) {
		key := HashString(fmt.Sprint(v))
		attempt := c.nextAttempt(key)
		if c.cfg.PanicRate > 0 && c.draw(1, key, 0) < c.cfg.PanicRate {
			panic(fmt.Sprintf("chaos: injected panic (value=%v)", v))
		}
		if c.cfg.LatencyRate > 0 && c.cfg.Latency > 0 && c.draw(2, key, attempt) < c.cfg.LatencyRate {
			t := time.NewTimer(c.cfg.Latency)
			select {
			case <-ctx.Done():
				t.Stop()
				return false, ctx.Err()
			case <-t.C:
			}
		}
		if attempt <= c.cfg.FailAttempts {
			return false, New(Transient, "chaos", fmt.Errorf("injected failure (value=%v attempt=%d)", v, attempt))
		}
		if c.cfg.ErrorRate > 0 && c.draw(3, key, attempt) < c.cfg.ErrorRate {
			return false, New(Transient, "chaos", fmt.Errorf("injected transient error (value=%v attempt=%d)", v, attempt))
		}
		return fn(ctx, v)
	}
}
