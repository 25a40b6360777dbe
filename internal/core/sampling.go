package core

import (
	"context"
	"fmt"
	"math"
	"slices"

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
// (§4), the §5 pair whose joint cells the five-action planner reads, the
// N-ary conjunction whose pooled selectivities order its waves, and §4.4's
// labels (one group, the universe). Its draw is keyed: §4's uniform sample
// without replacement is each group's lowest-ranked rows under the key, so
// it needs no copy or shuffle of a group and reads only what it takes.

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

// A statement's stages draw under their own sub-keys of its key
// (stats.Key.Sub): §4.4 / §6.3.2 labels, §4's sample and the coins.
const LabelDraw, SampleDraw, ExecuteDraw uint64 = 1, 2, 3

// Sampler incrementally samples tuples from groups without replacement and
// evaluates every predicate of the statement on each sampled row,
// remembering outcomes so allocations can be topped up (Section 4.3's
// adaptive scheme, §4.4's label rounds) without re-evaluating tuples. A
// sampled row's outcome is whether it passed every predicate: with one
// meter that is the UDF's verdict, with two the §5 joint cell
// P(f1 ∧ f2) the five actions are priced on, and each predicate's own
// passes are kept beside it (SampleOutcome.Pos) for the other joint cells
// and the greedy conjunction order. A group's sample at target t is its t
// lowest-ranked rows under the key (stats.Key.Rank), skipping failed rows:
// a row's fate depends on (key, row) and its group's target only, and a
// sample is a prefix of any larger one.
type Sampler struct {
	groups   []Group
	meters   []*Meter
	outcomes []SampleOutcome
	key      stats.Key
	// cut[i] is group i's rank cut: every row ranked below it is recorded in
	// outcomes[i] or failed, every row at or above it is undrawn.
	cut []uint64
	// parallelism caps the workers used to evaluate newly sampled rows
	// (default 1, fully sequential). Row selection is always sequential, so
	// outcomes are identical at any setting.
	parallelism int
}

// SetParallelism sets the worker cap for UDF evaluation during TopUpCtx
// (≤ 0 means GOMAXPROCS, 1 means sequential).
func (s *Sampler) SetParallelism(p int) { s.parallelism = p }

// NewSampler prepares a single-predicate sampler over the groups: the
// one-meter case of NewJointSampler, keyed by rng's next draw.
func NewSampler(groups []Group, meter *Meter, rng *stats.RNG) *Sampler {
	return NewJointSampler(groups, []*Meter{meter}, stats.Key(rng.Uint64()))
}

// NewJointSampler prepares a sampler that evaluates every meter, in order,
// on each sampled row, drawing rows by their rank under key.
func NewJointSampler(groups []Group, meters []*Meter, key stats.Key) *Sampler {
	s := &Sampler{
		groups:      groups,
		meters:      meters,
		outcomes:    make([]SampleOutcome, len(groups)),
		key:         key,
		cut:         make([]uint64, len(groups)),
		parallelism: 1,
	}
	for i := range groups {
		s.outcomes[i] = SampleOutcome{Results: make(map[int]bool), Pos: make([]int, len(meters))}
	}
	return s
}

// lowest appends group i's want lowest-ranked undrawn rows (or all of
// them, if fewer) to buf in the group's row order and returns its next cut.
// A pass hashes the group once for the rows ranked in a window above the
// cut sized for want plus four standard deviations, so a second pass (over
// a doubled window) is rare and the ranks to sort are few.
func (s *Sampler) lowest(buf []int, i, want int) ([]int, uint64) {
	key, lo, from, k := s.key, s.cut[i], len(buf), float64(want)
	var ranks []uint64
	for share := (k + 4*math.Sqrt(k) + 8) / float64(len(s.groups[i].Rows)); ; share *= 2 {
		span := ^uint64(0) - lo
		if w := share * 0x1p64; w < float64(span) {
			span = uint64(w)
		}
		for _, row := range s.groups[i].Rows {
			if r := key.Rank(row); r-lo <= span {
				buf, ranks = append(buf, row), append(ranks, r)
			}
		}
		if len(ranks) >= want || lo+span == ^uint64(0) {
			break
		}
		lo += span + 1
	}
	if want = min(want, len(ranks)); want == 0 {
		return buf, s.cut[i]
	}
	slices.Sort(ranks)
	cut, kept := ranks[want-1], buf[:from]
	for _, row := range buf[from:] {
		if key.Rank(row) <= cut {
			kept = append(kept, row)
		}
	}
	return kept, cut + 1
}

// TopUpCtx raises each group's sampled count to targets[i] (no-op for
// groups already at or above target), evaluating every predicate on the
// newly sampled rows. It returns the number of rows it drew.
//
// TopUpCtx is plan/evaluate split: the rows each group still owes are
// chosen sequentially by rank, then each predicate runs over the whole
// batch as one Meter.EvalRows batch on up to SetParallelism workers, in predicate order on the calling goroutine — a
// circuit breaker the predicates share needs sequential fold points — and
// outcomes are recorded in plan order, so the sampler's state afterwards is
// identical at any parallelism level. Sampling never short-circuits: a
// joint outcome needs every predicate's verdict. The state mutates only
// after every batch evaluated successfully: a cancelled top-up returns
// ctx.Err() with the cuts and outcomes exactly as they were, so the sampler
// (and its meters, whose memos charge a row once) stays reusable — a later
// top-up over the same targets re-plans the identical batch.
func (s *Sampler) TopUpCtx(ctx context.Context, targets []int) (int, error) {
	if len(targets) != len(s.groups) {
		return 0, fmt.Errorf("core: %d targets for %d groups", len(targets), len(s.groups))
	}
	if len(s.meters) == 0 {
		return 0, fmt.Errorf("core: sampler without predicates")
	}
	// Plan: the rows each group owes, group-major.
	var work, groupOf []int
	cuts := slices.Clone(s.cut)
	for i := range s.groups {
		if want := targets[i] - len(s.outcomes[i].Results); want > 0 {
			n := len(work)
			work, cuts[i] = s.lowest(work, i, want)
			for range len(work) - n {
				groupOf = append(groupOf, i)
			}
		}
	}
	// Evaluate in parallel; commit (cut + record) only on full success.
	// Rows whose evaluation failed under some predicate fall below the cut
	// (so they are not endlessly re-planned) but are recorded as NOTHING:
	// failed invocations must never become sampling evidence, a row missing
	// one verdict has no joint outcome, and a later top-up to the same
	// target simply samples the next-ranked rows.
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
	s.cut = cuts
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
// examined.
func (s *Sampler) TotalSampled() int {
	total := 0
	for _, o := range s.outcomes {
		total += len(o.Results)
	}
	return total
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
