package resilience

import "sync"

// BreakerConfig tunes a circuit breaker. The zero value is usable: every
// knob falls back to the documented default.
type BreakerConfig struct {
	// Window is the size of the sliding outcome window (default 32).
	Window int
	// MinCalls is how many outcomes the window needs before the failure
	// rate is trusted enough to trip (default 10).
	MinCalls int
	// FailureRate is the tripping threshold (default 0.5): the breaker
	// opens when failures/outcomes in the window reaches it.
	FailureRate float64
	// Cooldown is how many DENIED calls an open breaker absorbs before
	// moving to half-open (default 32). The clock is logical — denials, not
	// wall time — so breaker behavior replays identically in tests.
	Cooldown int
	// Probes is how many trial calls half-open admits; all must succeed to
	// close, any failure re-opens (default 4).
	Probes int
	// Segment is the barrier width gated batches use once the breaker has
	// seen a failure (default 32). Smaller segments react faster but add
	// synchronization barriers; before the first failure batches run
	// unsegmented, so healthy workloads pay nothing.
	Segment int
}

func (c BreakerConfig) window() int {
	if c.Window <= 0 {
		return 32
	}
	return c.Window
}

func (c BreakerConfig) minCalls() int {
	if c.MinCalls <= 0 {
		return 10
	}
	return c.MinCalls
}

func (c BreakerConfig) failureRate() float64 {
	if c.FailureRate <= 0 || c.FailureRate > 1 {
		return 0.5
	}
	return c.FailureRate
}

func (c BreakerConfig) cooldown() int {
	if c.Cooldown <= 0 {
		return 32
	}
	return c.Cooldown
}

func (c BreakerConfig) probes() int {
	if c.Probes <= 0 {
		return 4
	}
	return c.Probes
}

func (c BreakerConfig) segment() int {
	if c.Segment <= 0 {
		return 32
	}
	return c.Segment
}

// BreakerState is a breaker's position in the closed → open → half-open
// cycle.
type BreakerState uint8

const (
	// BreakerClosed admits everything (healthy).
	BreakerClosed BreakerState = iota
	// BreakerOpen denies everything while the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a few probes to test recovery.
	BreakerHalfOpen
)

// String names the state for stats endpoints.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a circuit breaker designed for deterministic batch
// evaluation. It implements the exec.Gate protocol:
//
//   - Segment() reports the barrier width gated batches should use — 0
//     ("run the whole batch as one wave") until the breaker records its
//     first failure, the configured segment width afterwards. This keeps
//     the healthy path exactly as fast as ungated evaluation.
//   - Plan(n) decides, before a segment evaluates, which of its n items
//     may invoke; denials advance the open-state cooldown.
//   - Record(failed) folds the segment's admitted outcomes back in item
//     order after the segment evaluates: one lock per segment.
//
// Because Plan and Record run sequentially on the batch's spine (only the
// evaluations between them fan out), the breaker's state transitions — and
// therefore Trips and every deny decision — depend only on the outcome
// sequence, never on worker scheduling. All methods are mutex-guarded, so
// a breaker shared across concurrent queries stays consistent (though
// cross-query interleaving is then scheduling-dependent by nature).
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	state BreakerState
	// armed flips on the first recorded failure and never resets: it
	// switches gated batches from whole-batch waves to segmented waves.
	armed bool

	// Sliding outcome window (closed state).
	window []bool
	widx   int
	wlen   int
	fails  int

	// Open-state cooldown and half-open probe accounting.
	cooldownLeft   int
	probesIssued   int
	probeSuccesses int

	trips int64
}

// NewBreaker returns a closed breaker under the given config.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg, window: make([]bool, cfg.window())}
}

// Segment implements exec.Gate: 0 (no segmentation) while the breaker has
// never seen a failure, the configured width afterwards.
func (b *Breaker) Segment() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.armed {
		return 0
	}
	return b.cfg.segment()
}

// Plan implements exec.Gate: it returns, for each of the next n items in
// order, whether the item may invoke. Denied items advance the open
// cooldown; when the cooldown elapses mid-plan the breaker moves to
// half-open and admits probes from the remaining items.
func (b *Breaker) Plan(n int) []bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	allowed := make([]bool, n)
	for i := range allowed {
		switch b.state {
		case BreakerClosed:
			allowed[i] = true
		case BreakerOpen:
			b.cooldownLeft--
			if b.cooldownLeft <= 0 {
				b.state = BreakerHalfOpen
				b.probesIssued = 0
				b.probeSuccesses = 0
			}
			// This item is still denied; the NEXT one may probe.
		case BreakerHalfOpen:
			if b.probesIssued < b.cfg.probes() {
				b.probesIssued++
				allowed[i] = true
			}
		}
	}
	return allowed
}

// Record implements exec.Gate: fold one segment's admitted outcomes, in
// item order, under one lock. Folding a segment is folding its items one
// by one; the slice is not retained.
func (b *Breaker) Record(failed []bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range failed {
		b.fold(f)
	}
}

// fold applies one admitted item's outcome. Closed-state outcomes feed the
// sliding window and may trip the breaker; half-open outcomes resolve
// probes. Outcomes arriving while open (admitted before the trip folded)
// are ignored. Callers hold b.mu.
func (b *Breaker) fold(failed bool) {
	if failed {
		b.armed = true
	}
	switch b.state {
	case BreakerClosed:
		b.push(failed)
		if b.wlen >= b.cfg.minCalls() && float64(b.fails) >= b.cfg.failureRate()*float64(b.wlen) {
			b.trip()
		}
	case BreakerHalfOpen:
		if failed {
			b.trip()
			return
		}
		b.probeSuccesses++
		if b.probeSuccesses >= b.cfg.probes() {
			b.state = BreakerClosed
			b.resetWindow()
		}
	}
}

// push adds one outcome to the sliding window. Callers hold b.mu.
func (b *Breaker) push(failed bool) {
	if b.wlen == len(b.window) {
		if b.window[b.widx] {
			b.fails--
		}
	} else {
		b.wlen++
	}
	b.window[b.widx] = failed
	if failed {
		b.fails++
	}
	b.widx = (b.widx + 1) % len(b.window)
}

// trip opens the breaker. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.trips++
	b.cooldownLeft = b.cfg.cooldown()
	b.resetWindow()
}

// resetWindow clears the sliding window. Callers hold b.mu.
func (b *Breaker) resetWindow() {
	b.wlen, b.widx, b.fails = 0, 0, 0
}

// State reports the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
