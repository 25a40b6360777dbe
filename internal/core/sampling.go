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
// only this one.)

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

// Sampler incrementally samples tuples from groups without replacement,
// remembering outcomes so allocations can be topped up (a warm catalog,
// Section 4.3's adaptive scheme) without re-evaluating tuples.
type Sampler struct {
	groups   []Group
	meter    *Meter
	rng      *stats.RNG
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

// NewSampler prepares a sampler over the groups. Each group's rows are
// shuffled once up front so successive top-ups are uniform without
// replacement.
func NewSampler(groups []Group, meter *Meter, rng *stats.RNG) *Sampler {
	s := &Sampler{
		groups:      groups,
		meter:       meter,
		rng:         rng,
		outcomes:    make([]SampleOutcome, len(groups)),
		unsampled:   make([][]int, len(groups)),
		parallelism: 1,
	}
	for i, g := range groups {
		rows := append([]int(nil), g.Rows...)
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		s.unsampled[i] = rows
		s.outcomes[i] = SampleOutcome{Results: make(map[int]bool)}
	}
	return s
}

// seedKnown moves rows with known outcomes from the unsampled pools into
// the recorded results, returning how many rows it seeded. Rows not
// belonging to any group (or already sampled) are ignored.
func (s *Sampler) seedKnown(known map[int]bool) int {
	seeded := 0
	for i := range s.groups {
		kept := s.unsampled[i][:0]
		for _, row := range s.unsampled[i] {
			if v, ok := known[row]; ok {
				s.outcomes[i].Results[row] = v
				if v {
					s.outcomes[i].Positives++
				}
				seeded++
				continue
			}
			kept = append(kept, row)
		}
		s.unsampled[i] = kept
	}
	return seeded
}

// Preload records rows whose UDF outcome is already known (e.g. tuples
// labeled while discovering the correlated column, Section 4.4) so they
// count as sampled without re-evaluation. Rows not belonging to any group
// are ignored.
func (s *Sampler) Preload(known map[int]bool) {
	s.seedKnown(known)
}

// SeedPrior records rows whose UDF outcome was paid for in an earlier
// process life (e.g. restored from a durable catalog). Like Preload, the
// rows count as sampling evidence — they strengthen the Beta posterior and
// shrink or eliminate later top-ups — but unlike Preload they are NOT
// counted by TotalSampled: they were not examined during this query, and
// reporting them as sampled would hide the warm-start savings. Rows not
// belonging to any group (or already sampled) are ignored. Returns the
// number of rows seeded.
func (s *Sampler) SeedPrior(known map[int]bool) int {
	seeded := s.seedKnown(known)
	s.priors += seeded
	return seeded
}

// TopUpCtx raises each group's sampled count to targets[i] (no-op for
// groups already at or above target), evaluating the UDF on newly sampled
// rows. It returns the number of new evaluations performed.
//
// TopUpCtx is plan/evaluate split: the rows to sample are read sequentially
// from the pre-shuffled per-group pools (no RNG is consumed), the UDF runs
// over the whole batch on up to SetParallelism workers, and outcomes are
// recorded in pop order — so the sampler's state afterwards is identical at
// any parallelism level. The state mutates only after the whole batch
// evaluated successfully: a cancelled top-up returns ctx.Err() with the
// un-sampled pools and outcomes exactly as they were, so the sampler (and
// its meter) stays reusable — a later top-up over the same targets
// re-plans the identical batch.
func (s *Sampler) TopUpCtx(ctx context.Context, targets []int) (int, error) {
	if len(targets) != len(s.groups) {
		return 0, fmt.Errorf("core: %d targets for %d groups", len(targets), len(s.groups))
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
	// Rows whose evaluation failed are popped (so they are not endlessly
	// re-planned) but recorded as NOTHING: failed invocations must never
	// become sampling evidence, and a later top-up to the same target
	// simply samples replacement rows.
	verdicts, failed, err := s.meter.EvalRows(ctx, exec.NewPool(s.parallelism), work)
	if err != nil {
		return 0, err
	}
	for i, k := range take {
		s.unsampled[i] = s.unsampled[i][:len(s.unsampled[i])-k]
	}
	for k, row := range work {
		if failed[k] {
			continue
		}
		i := groupOf[k]
		s.outcomes[i].Results[row] = verdicts[k]
		if verdicts[k] {
			s.outcomes[i].Positives++
		}
	}
	return len(work), nil
}

// Outcomes returns the per-group sampling outcomes (shared, do not mutate).
func (s *Sampler) Outcomes() []SampleOutcome { return s.outcomes }

// TotalSampled returns the number of tuples examined so far by this
// sampler: labeled, preloaded or topped up. Rows seeded from prior
// process lives (SeedPrior) are excluded — their cost was paid before
// this query started.
func (s *Sampler) TotalSampled() int {
	total := 0
	for _, o := range s.outcomes {
		total += len(o.Results)
	}
	return total - s.priors
}

// Infos converts the current sampling state into estimated-selectivity
// GroupInfo values using the Beta posterior.
func (s *Sampler) Infos() []GroupInfo {
	infos := make([]GroupInfo, len(s.groups))
	for i, g := range s.groups {
		o := s.outcomes[i]
		infos[i] = GroupInfoFromSample(len(g.Rows), len(o.Results), o.Positives)
	}
	return infos
}
