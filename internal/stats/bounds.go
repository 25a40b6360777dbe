package stats

import "math"

// This file implements the concentration bounds from Sections 3.2 and 3.3:
// Hoeffding margins that convert "satisfy the constraint in expectation"
// into "satisfy the constraint with probability ≥ ρ", and the Chebyshev
// deviation multiplier e_ρ used by the convex programs.

// HoeffdingMargin returns the one-sided deviation t such that a sum of n
// independent random variables, each with range width `rangeWidth`, stays
// within t of its expectation with probability at least rho:
//
//	t = rangeWidth · sqrt( n · ln(1/(1−rho)) / 2 )
//
// The paper's Eq. (8)–(9) write log(1−ρ) — negative for ρ<1 — which is a
// typo; the appendix derivation (setting exp(−2t²/Σ(bᵢ−aᵢ)²) = 1−ρ) yields
// the form implemented here. rho must lie in [0,1); rho <= 0 gives margin 0.
func HoeffdingMargin(n float64, rangeWidth, rho float64) float64 {
	if rho <= 0 || n <= 0 || rangeWidth <= 0 {
		return 0
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return rangeWidth * math.Sqrt(n*math.Log(1/(1-rho))/2)
}

// PrecisionMargin is h^p_ρ from Eq. (8): the per-tuple precision indicator
// I^p lies in [−α, 1−α], range width 1, so the margin is
// sqrt(n·ln(1/(1−ρ))/2) where n = Σ tₐ.
func PrecisionMargin(totalTuples float64, rho float64) float64 {
	return HoeffdingMargin(totalTuples, 1, rho)
}

// RecallMargin is h^r_ρ from Eq. (9): the per-tuple recall indicator I^r
// lies in [0, 1−β], so the margin is (1−β)·sqrt(n·ln(1/(1−ρ))/2).
func RecallMargin(totalTuples, beta, rho float64) float64 {
	return HoeffdingMargin(totalTuples, 1-beta, rho)
}

// ChebyshevMultiplier returns e_ρ = 1/sqrt(1−ρ). Chebyshev's inequality
// guarantees P(|X−E[X]| ≥ e_ρ·Dev(X)) ≤ 1−ρ, so requiring
// E[LHS] ≥ e_ρ·Dev(LHS) makes the probabilistic constraint hold with
// probability at least ρ (Section 3.3.1).
func ChebyshevMultiplier(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return 1 / math.Sqrt(1-rho)
}
