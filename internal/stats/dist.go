package stats

import (
	"fmt"
	"math"
)

// BetaDist is the Beta(Alpha, Beta) distribution. Section 4.1 of the paper
// models the posterior over a group's selectivity after observing F⁺ matching
// and F⁻ non-matching sampled tuples as Beta(F⁺+1, F⁻+1).
type BetaDist struct {
	Alpha, Beta float64
}

// NewBetaPosterior returns the selectivity posterior after observing
// positives matching tuples and negatives non-matching tuples, i.e.
// Beta(positives+1, negatives+1) — a uniform prior updated by the sample.
func NewBetaPosterior(positives, negatives int) BetaDist {
	if positives < 0 || negatives < 0 {
		panic(fmt.Sprintf("stats: negative Beta counts (%d, %d)", positives, negatives))
	}
	return BetaDist{Alpha: float64(positives) + 1, Beta: float64(negatives) + 1}
}

// Mean returns α/(α+β). For the posterior this is (F⁺+1)/(F+2), the paper's
// selectivity estimate sₐ.
func (d BetaDist) Mean() float64 { return d.Alpha / (d.Alpha + d.Beta) }

// Variance returns αβ/((α+β)²(α+β+1)). For the posterior this equals
// s(1−s)/(F+3), the paper's vₐ.
func (d BetaDist) Variance() float64 {
	s := d.Alpha + d.Beta
	return d.Alpha * d.Beta / (s * s * (s + 1))
}

// Mode returns the distribution's mode; defined for α,β > 1, otherwise the
// nearest boundary is returned.
func (d BetaDist) Mode() float64 {
	switch {
	case d.Alpha > 1 && d.Beta > 1:
		return (d.Alpha - 1) / (d.Alpha + d.Beta - 2)
	case d.Alpha <= 1 && d.Beta > 1:
		return 0
	case d.Alpha > 1 && d.Beta <= 1:
		return 1
	default:
		return 0.5
	}
}

// PDF returns the density at x.
func (d BetaDist) PDF(x float64) float64 {
	if x < 0 || x > 1 {
		return 0
	}
	if x == 0 || x == 1 {
		// Density may be infinite at the boundary; report a large finite
		// value only when the exponent is exactly zero.
		if (x == 0 && d.Alpha == 1) || (x == 1 && d.Beta == 1) {
			return math.Exp(-logBeta(d.Alpha, d.Beta))
		}
		return 0
	}
	return math.Exp((d.Alpha-1)*math.Log(x) + (d.Beta-1)*math.Log(1-x) - logBeta(d.Alpha, d.Beta))
}

// Sample draws from the distribution using r.
func (d BetaDist) Sample(r *RNG) float64 { return r.Beta(d.Alpha, d.Beta) }

// logBeta returns ln B(a,b).
func logBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// BinomialDist is the Binomial(N, P) distribution: the number of correct
// tuples in a group of N tuples with independent per-tuple selectivity P
// (the Perfect Selectivities model of Section 3.2).
type BinomialDist struct {
	N int
	P float64
}

// Mean returns N·P.
func (d BinomialDist) Mean() float64 { return float64(d.N) * d.P }

// Variance returns N·P·(1−P).
func (d BinomialDist) Variance() float64 { return float64(d.N) * d.P * (1 - d.P) }

// PMF returns P(X = k).
func (d BinomialDist) PMF(k int) float64 {
	if k < 0 || k > d.N {
		return 0
	}
	if d.P <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if d.P >= 1 {
		if k == d.N {
			return 1
		}
		return 0
	}
	ln, _ := math.Lgamma(float64(d.N) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(d.N-k) + 1)
	return math.Exp(ln - lk - lnk + float64(k)*math.Log(d.P) + float64(d.N-k)*math.Log(1-d.P))
}

// CDF returns P(X <= k) by direct summation; adequate for the moderate N
// used in tests.
func (d BinomialDist) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= d.N {
		return 1
	}
	total := 0.0
	for i := 0; i <= k; i++ {
		total += d.PMF(i)
	}
	if total > 1 {
		total = 1
	}
	return total
}

// ContractSignificance is the false-alarm rate every in-tree contract
// check runs ContractHolds at.
const ContractSignificance = 1e-3

// ContractHolds is the one rule by which an (α, β, ρ) check decides: of n
// independent statements, met met a constraint the system promises to meet
// with probability at least rho. The contract is refuted only when so few
// would be seen with probability below significance were the true rate
// exactly rho — the binomial lower tail P(Binomial(n, rho) ≤ met). Its false
// alarm rate is at most significance; its power against a true rate q < rho
// is P(Binomial(n, q) ≤ c) for the largest c it refutes.
func ContractHolds(met, n int, rho, significance float64) bool {
	return BinomialDist{N: n, P: rho}.CDF(met) >= significance
}

// NormalDist is the Normal(Mu, Sigma) distribution, used for tail checks in
// tests and the large-n binomial approximation.
type NormalDist struct {
	Mu, Sigma float64
}

// PDF returns the density at x.
func (d NormalDist) PDF(x float64) float64 {
	if d.Sigma <= 0 {
		return 0
	}
	z := (x - d.Mu) / d.Sigma
	return math.Exp(-0.5*z*z) / (d.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X <= x).
func (d NormalDist) CDF(x float64) float64 {
	if d.Sigma <= 0 {
		if x < d.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-d.Mu)/(d.Sigma*math.Sqrt2))
}

// Quantile returns the p-th quantile via bisection on the CDF. p must lie in
// (0,1).
func (d NormalDist) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: Normal quantile requires p in (0,1)")
	}
	lo, hi := d.Mu-12*d.Sigma, d.Mu+12*d.Sigma
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if d.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Sample draws from the distribution using r.
func (d NormalDist) Sample(r *RNG) float64 { return d.Mu + d.Sigma*r.NormFloat64() }
