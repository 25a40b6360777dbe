package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/stats"
)

// This file implements Section 4: joint estimation and exploitation.
// Selectivities are estimated by sampling (retrieving and evaluating) a few
// tuples per group; the Beta posterior of Section 4.1 turns the outcomes
// into (sₐ, vₐ) estimates; the paper's Two-Third-Power rule of thumb
// Fₐ = num·tₐ·n^(−1/3) decides how much to sample per group. (The other
// allocation schemes the paper studies — constant, and the Section 4.3
// adaptive search for num — live in internal/experiments: the engine runs
// only this one.) One Sampler serves every sampled shape: one predicate
// (§4), the §5 pair whose joint cells the five-action planner reads, and
// the N-ary conjunction whose pooled selectivities order its waves.

// TwoThirdPowerAllocator samples Fₐ = num·tₐ·n^(−1/3) tuples from group a,
// the Section 4.3 rule of thumb (so named because total sampling grows as
// n^(2/3)).
type TwoThirdPowerAllocator struct{ Num float64 }

// Allocate returns the target sample count per group, each in
// [0, sizes[i]].
func (a TwoThirdPowerAllocator) Allocate(sizes []int) []int {
	n := 0
	for _, t := range sizes {
		n += t
	}
	out := make([]int, len(sizes))
	if n == 0 {
		return out
	}
	scale := a.Num * math.Pow(float64(n), -1.0/3.0)
	for i, t := range sizes {
		out[i] = min(t, int(math.Round(scale*float64(t))))
	}
	return out
}

func (a TwoThirdPowerAllocator) String() string {
	return fmt.Sprintf("two-third-power(%.2f)", a.Num)
}

// DefaultAllocator is the allocation the engine samples with, for the
// single-predicate and the conjunction shapes alike: Two-Third-Power at
// num = 2.5·α, the paper's recommended setting.
func DefaultAllocator(alpha float64) TwoThirdPowerAllocator {
	return TwoThirdPowerAllocator{Num: 2.5 * alpha}
}

// Sampler incrementally samples tuples from groups without replacement and
// evaluates every predicate of the statement on each sampled row,
// remembering outcomes so allocations can be topped up (a warm catalog,
// Section 4.3's adaptive scheme) without re-evaluating tuples. A sampled
// row's outcome is whether it passed every predicate: with one meter that
// is the UDF's verdict, with two the §5 joint cell P(f1 ∧ f2) the five
// actions are priced on, and each predicate's own passes are kept beside
// it (SampleOutcome.Pos) for the other joint cells and the greedy
// conjunction order.
type Sampler struct {
	groups   []Group
	meters   []*Meter
	outcomes []SampleOutcome
	// unsampled[i] holds the not-yet-sampled row ids of group i in a
	// pre-shuffled order; sampling pops from the tail.
	unsampled [][]int
	// parallelism caps the workers used to evaluate newly sampled rows
	// (default 1, fully sequential). Row selection is always sequential, so
	// outcomes are identical at any setting.
	parallelism int
	// priors counts rows seeded via SeedPrior: they carry evidence but were
	// not examined by this query, so TotalSampled excludes them.
	priors int
}

// SetParallelism sets the worker cap for UDF evaluation during TopUpCtx
// (≤ 0 means GOMAXPROCS, 1 means sequential).
func (s *Sampler) SetParallelism(p int) { s.parallelism = p }

// NewSampler prepares a single-predicate sampler over the groups: the
// one-meter case of NewJointSampler.
func NewSampler(groups []Group, meter *Meter, rng *stats.RNG) *Sampler {
	return NewJointSampler(groups, []*Meter{meter}, rng)
}

// NewJointSampler prepares a sampler that evaluates every meter, in order,
// on each sampled row. Each group's rows are shuffled once up front so
// successive top-ups are uniform without replacement.
func NewJointSampler(groups []Group, meters []*Meter, rng *stats.RNG) *Sampler {
	s := &Sampler{
		groups:      groups,
		meters:      meters,
		outcomes:    make([]SampleOutcome, len(groups)),
		unsampled:   make([][]int, len(groups)),
		parallelism: 1,
	}
	for i, g := range groups {
		rows := append([]int(nil), g.Rows...)
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		s.unsampled[i] = rows
		s.outcomes[i] = SampleOutcome{Results: make(map[int]bool), Pos: make([]int, len(meters))}
	}
	return s
}

// SeedPrior records rows whose UDF outcome was paid for in an earlier
// process life (restored from a durable catalog), moving them from the
// unsampled pools into the recorded results. They count as sampling
// evidence — they strengthen the Beta posterior and shrink or eliminate
// later top-ups — but not toward TotalSampled: they were not examined
// during this query, and reporting them as sampled would hide the
// warm-start savings. Rows not belonging to any group (or already sampled)
// are ignored. A prior is one predicate's verdict, so it panics on a joint
// sampler. Returns the number of rows seeded.
func (s *Sampler) SeedPrior(known map[int]bool) int {
	if len(s.meters) != 1 {
		panic("core: known outcomes seed a single-predicate sampler only")
	}
	seeded := 0
	for i := range s.groups {
		kept := s.unsampled[i][:0]
		for _, row := range s.unsampled[i] {
			if v, ok := known[row]; ok {
				o := &s.outcomes[i]
				o.Results[row] = v
				if v {
					o.Positives++
					o.Pos[0]++
				}
				seeded++
				continue
			}
			kept = append(kept, row)
		}
		s.unsampled[i] = kept
	}
	s.priors += seeded
	return seeded
}

// TopUpCtx raises each group's sampled count to targets[i] (no-op for
// groups already at or above target), evaluating every predicate on the
// newly sampled rows. It returns the number of rows it drew.
//
// TopUpCtx is plan/evaluate split: the rows to sample are read sequentially
// from the pre-shuffled per-group pools (no RNG is consumed), then each
// predicate runs over the whole batch as one Meter.EvalRows batch on up to
// SetParallelism workers, in predicate order on the calling goroutine — a
// circuit breaker the predicates share needs sequential fold points — and
// outcomes are recorded in pop order, so the sampler's state afterwards is
// identical at any parallelism level. Sampling never short-circuits: a
// joint outcome needs every predicate's verdict. The state mutates only
// after every batch evaluated successfully: a cancelled top-up returns
// ctx.Err() with the un-sampled pools and outcomes exactly as they were, so
// the sampler (and its meters, whose memos charge a row once) stays
// reusable — a later top-up over the same targets re-plans the identical
// batch.
func (s *Sampler) TopUpCtx(ctx context.Context, targets []int) (int, error) {
	if len(targets) != len(s.groups) {
		return 0, fmt.Errorf("core: %d targets for %d groups", len(targets), len(s.groups))
	}
	if len(s.meters) == 0 {
		return 0, fmt.Errorf("core: sampler without predicates")
	}
	// Plan: read (without popping) the rows each group still owes from the
	// tail of its pre-shuffled pool, group-major, in pop order.
	var work, groupOf []int
	take := make([]int, len(s.groups))
	for i := range s.groups {
		want := targets[i] - len(s.outcomes[i].Results)
		if avail := len(s.unsampled[i]); want > avail {
			want = avail
		}
		if want < 0 {
			want = 0
		}
		last := len(s.unsampled[i]) - 1
		for k := 0; k < want; k++ {
			work = append(work, s.unsampled[i][last-k])
			groupOf = append(groupOf, i)
		}
		take[i] = want
	}
	// Evaluate in parallel; commit (pop + record) only on full success.
	// Rows whose evaluation failed under some predicate are popped (so they
	// are not endlessly re-planned) but recorded as NOTHING: failed
	// invocations must never become sampling evidence, a row missing one
	// verdict has no joint outcome, and a later top-up to the same target
	// simply samples replacement rows.
	pool := exec.NewPool(s.parallelism)
	verdicts := make([][]bool, len(s.meters))
	var failed []bool
	for j, m := range s.meters {
		v, f, err := m.EvalRows(ctx, pool, work)
		if err != nil {
			return 0, err
		}
		verdicts[j] = v
		if j == 0 {
			failed = f
			continue
		}
		for k := range f {
			failed[k] = failed[k] || f[k]
		}
	}
	for i, k := range take {
		s.unsampled[i] = s.unsampled[i][:len(s.unsampled[i])-k]
	}
	for k, row := range work {
		if failed[k] {
			continue
		}
		o := &s.outcomes[groupOf[k]]
		all := true
		for j, v := range verdicts {
			if v[k] {
				o.Pos[j]++
			} else {
				all = false
			}
		}
		o.Results[row] = all
		if all {
			o.Positives++
		}
	}
	return len(work), nil
}

// Outcomes returns the per-group sampling outcomes (shared, do not mutate).
func (s *Sampler) Outcomes() []SampleOutcome { return s.outcomes }

// TotalSampled returns the number of tuples this sampler's top-ups
// examined. Rows seeded from prior process lives (SeedPrior) are excluded
// — their cost was paid before this query started.
func (s *Sampler) TotalSampled() int {
	total := 0
	for _, o := range s.outcomes {
		total += len(o.Results)
	}
	return total - s.priors
}

// Infos converts the current sampling state into estimated-selectivity
// GroupInfo values (of passing every predicate) using the Beta posterior.
func (s *Sampler) Infos() []GroupInfo {
	infos := make([]GroupInfo, len(s.groups))
	for i, g := range s.groups {
		o := s.outcomes[i]
		infos[i] = GroupInfoFromSample(len(g.Rows), len(o.Results), o.Positives)
	}
	return infos
}

// Selectivities returns each predicate's selectivity pooled over every
// group: the Beta-posterior mean of its passes among all rows sampled so
// far. They rank a conjunction's predicates for the greedy order.
func (s *Sampler) Selectivities() []float64 {
	sampled := 0
	for _, o := range s.outcomes {
		sampled += len(o.Results)
	}
	sels := make([]float64, len(s.meters))
	for j := range sels {
		pos := 0
		for _, o := range s.outcomes {
			pos += o.Pos[j]
		}
		sels[j] = stats.NewBetaPosterior(pos, sampled-pos).Mean()
	}
	return sels
}
