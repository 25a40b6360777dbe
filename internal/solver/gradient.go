package solver

import (
	"errors"
	"math"
)

// Constraint is a scalar inequality g(x) ≤ 0. Grad may be nil, in which
// case a central finite difference is used.
type Constraint struct {
	F    func(x []float64) float64
	Grad func(x []float64, out []float64)
}

// Problem is a convex minimization problem
//
//	minimize  Obj(x)
//	s.t.      Cons[i](x) ≤ 0  for all i
//	          x ∈ S           (S encoded by the Project operator)
//
// Project must be the Euclidean projection onto a convex set (for execution
// strategies, the product of {0 ≤ E ≤ R ≤ 1} triangles). ObjGrad may be nil
// to request finite differences.
type Problem struct {
	Dim     int
	Obj     func(x []float64) float64
	ObjGrad func(x []float64, out []float64)
	Cons    []Constraint
	Project func(x []float64)
}

// Options tunes the projected-gradient solver. Zero values select sane
// defaults.
type Options struct {
	// MaxOuter is the number of penalty-continuation rounds (default 12).
	MaxOuter int
	// MaxInner is the number of projected-gradient steps per round
	// (default 400).
	MaxInner int
	// Tol is the maximum allowed constraint violation (default 1e-6,
	// relative to constraint scale as supplied by the caller).
	Tol float64
	// InitialPenalty is the starting quadratic penalty weight (default 10).
	InitialPenalty float64
	// PenaltyGrowth multiplies the penalty each round (default 8).
	PenaltyGrowth float64
	// Step is the initial step size for backtracking (default 1).
	Step float64
}

func (o *Options) fill() {
	if o.MaxOuter <= 0 {
		o.MaxOuter = 12
	}
	if o.MaxInner <= 0 {
		o.MaxInner = 400
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.InitialPenalty <= 0 {
		o.InitialPenalty = 10
	}
	if o.PenaltyGrowth <= 1 {
		o.PenaltyGrowth = 8
	}
	if o.Step <= 0 {
		o.Step = 1
	}
}

// ErrInfeasible is returned when the solver cannot reduce the constraint
// violation below the tolerance.
var ErrInfeasible = errors.New("solver: could not find a feasible point")

// Result reports the solution of a Solve call.
type Result struct {
	X         []float64
	Objective float64
	// MaxViolation is the largest constraint value max_i g_i(x) (≤ Tol on
	// success; 0 means strictly feasible).
	MaxViolation float64
	// Iterations counts total inner gradient steps taken.
	Iterations int
}

// Solve minimizes the problem with a quadratic-penalty projected-gradient
// method: each outer round minimizes Obj(x) + μ·Σ max(0, gᵢ(x))² by
// projected gradient descent with backtracking line search, then grows μ.
// x0 is the starting point (copied). For convex problems this converges to
// a feasible near-optimal point; the caller should verify domain-specific
// feasibility with its own exact check.
func Solve(p Problem, x0 []float64, opt Options) (Result, error) {
	opt.fill()
	if len(x0) != p.Dim {
		return Result{}, errors.New("solver: x0 dimension mismatch")
	}
	x := append([]float64(nil), x0...)
	if p.Project != nil {
		p.Project(x)
	}
	grad := make([]float64, p.Dim)
	cand := make([]float64, p.Dim)
	cgrad := make([]float64, p.Dim)
	mu := opt.InitialPenalty
	iters := 0

	penalty := func(x []float64) float64 {
		total := 0.0
		for _, c := range p.Cons {
			if v := c.F(x); v > 0 {
				total += v * v
			}
		}
		return total
	}
	merit := func(x []float64) float64 { return p.Obj(x) + mu*penalty(x) }

	meritGrad := func(x []float64, out []float64) {
		objGrad(p, x, out)
		for _, c := range p.Cons {
			v := c.F(x)
			if v <= 0 {
				continue
			}
			consGrad(c, x, cgrad)
			for i := range out {
				out[i] += 2 * mu * v * cgrad[i]
			}
		}
	}

	for outer := 0; outer < opt.MaxOuter; outer++ {
		step := opt.Step
		fx := merit(x)
		resets := 0
		for inner := 0; inner < opt.MaxInner; inner++ {
			iters++
			meritGrad(x, grad)
			gnorm := 0.0
			for _, g := range grad {
				gnorm += g * g
			}
			if gnorm < 1e-18 {
				break
			}
			// Normalize the step against the gradient magnitude so large
			// penalty weights do not force absurd first trial points.
			if gn := math.Sqrt(gnorm); step*gn > 8 {
				step = 8 / gn
			}
			// Backtracking line search on the projected step.
			improved := false
			for try := 0; try < 60; try++ {
				for i := range cand {
					cand[i] = x[i] - step*grad[i]
				}
				if p.Project != nil {
					p.Project(cand)
				}
				fc := merit(cand)
				if fc < fx-1e-18 {
					copy(x, cand)
					fx = fc
					improved = true
					// Gentle step growth keeps progress fast once the
					// region is found.
					step *= 1.3
					break
				}
				step /= 2
				if step < 1e-18 {
					break
				}
			}
			if !improved {
				if resets < 2 {
					resets++
					step = opt.Step
					continue
				}
				break
			}
		}
		if maxViolation(p, x) <= opt.Tol {
			return Result{X: x, Objective: p.Obj(x), MaxViolation: maxViolation(p, x), Iterations: iters}, nil
		}
		mu *= opt.PenaltyGrowth
	}
	mv := maxViolation(p, x)
	res := Result{X: x, Objective: p.Obj(x), MaxViolation: mv, Iterations: iters}
	if mv > opt.Tol {
		return res, ErrInfeasible
	}
	return res, nil
}

func maxViolation(p Problem, x []float64) float64 {
	worst := 0.0
	for _, c := range p.Cons {
		if v := c.F(x); v > worst {
			worst = v
		}
	}
	return worst
}

func objGrad(p Problem, x []float64, out []float64) {
	if p.ObjGrad != nil {
		p.ObjGrad(x, out)
		return
	}
	finiteDiff(p.Obj, x, out)
}

func consGrad(c Constraint, x []float64, out []float64) {
	if c.Grad != nil {
		c.Grad(x, out)
		return
	}
	finiteDiff(c.F, x, out)
}

// finiteDiff writes the central-difference gradient of f at x into out.
func finiteDiff(f func([]float64) float64, x []float64, out []float64) {
	const h = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		fp := f(x)
		x[i] = orig - h
		fm := f(x)
		x[i] = orig
		out[i] = (fp - fm) / (2 * h)
	}
}

// NaNGuard returns an error if any coordinate is NaN or infinite.
func NaNGuard(x []float64) error {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("solver: non-finite coordinate")
		}
	}
	return nil
}
