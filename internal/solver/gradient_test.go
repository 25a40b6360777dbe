package solver

import (
	"math"
	"testing"
)

func TestSolveQuadraticWithLinearConstraint(t *testing.T) {
	// minimize (x-3)^2 s.t. x <= 1  →  x = 1.
	p := Problem{
		Dim: 1,
		Obj: func(x []float64) float64 { return (x[0] - 3) * (x[0] - 3) },
		Cons: []Constraint{{
			F: func(x []float64) float64 { return x[0] - 1 },
		}},
	}
	res, err := Solve(p, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 {
		t.Fatalf("x = %v, want 1", res.X[0])
	}
}

func TestSolveLinearOverDisk(t *testing.T) {
	// minimize x+y s.t. x^2+y^2 <= 1  →  (-√2/2, -√2/2), objective -√2.
	p := Problem{
		Dim: 2,
		Obj: func(x []float64) float64 { return x[0] + x[1] },
		ObjGrad: func(x, out []float64) {
			out[0], out[1] = 1, 1
		},
		Cons: []Constraint{{
			F: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] - 1 },
			Grad: func(x, out []float64) {
				out[0], out[1] = 2*x[0], 2*x[1]
			},
		}},
		Project: func(x []float64) {
			ProjectBox(x, []float64{-2, -2}, []float64{2, 2})
		},
	}
	res, err := Solve(p, []float64{0.5, -0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective+math.Sqrt2) > 5e-3 {
		t.Fatalf("objective %v, want %v", res.Objective, -math.Sqrt2)
	}
}

func TestSolveStrategyShapedProblem(t *testing.T) {
	// A miniature of the paper's LP: two groups of 100 tuples with
	// selectivities 0.9 and 0.1; minimize cost R1+R2+3(E1+E2) scaled by
	// group size subject to a recall-like linear constraint
	// 90 R1 + 10 R2 >= 72 (β=0.8 of 90 correct tuples... here 0.8·90=72
	// using only group sizes for simplicity). Optimal: R1 = 0.8, rest 0.
	p := Problem{
		Dim: 4, // R1 E1 R2 E2
		Obj: func(x []float64) float64 {
			return 100*(x[0]+3*x[1]) + 100*(x[2]+3*x[3])
		},
		Cons: []Constraint{{
			F: func(x []float64) float64 { return 72 - (90*x[0] + 10*x[2]) },
		}},
		Project: ProjectStrategy,
	}
	res, err := Solve(p, []float64{0.5, 0.5, 0.5, 0.5}, Options{Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-80) > 0.5 {
		t.Fatalf("objective %v, want 80", res.Objective)
	}
	if res.X[1] > 0.01 || res.X[3] > 0.01 {
		t.Fatalf("evaluation probabilities should be ~0, got %v", res.X)
	}
}

func TestSolveInfeasibleReportsError(t *testing.T) {
	// x in [0,1] but constraint wants x >= 2.
	p := Problem{
		Dim: 1,
		Obj: func(x []float64) float64 { return x[0] },
		Cons: []Constraint{{
			F: func(x []float64) float64 { return 2 - x[0] },
		}},
		Project: func(x []float64) { ProjectBox(x, []float64{0}, []float64{1}) },
	}
	_, err := Solve(p, []float64{0}, Options{MaxOuter: 4, MaxInner: 50})
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	p := Problem{Dim: 2, Obj: func(x []float64) float64 { return 0 }}
	if _, err := Solve(p, []float64{1}, Options{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestNaNGuard(t *testing.T) {
	if err := NaNGuard([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := NaNGuard([]float64{1, math.NaN()}); err == nil {
		t.Fatal("expected NaN error")
	}
	if err := NaNGuard([]float64{math.Inf(1)}); err == nil {
		t.Fatal("expected Inf error")
	}
}
