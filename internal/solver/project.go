// Package solver provides the from-scratch numerical optimization substrate
// the paper's optimizer builds on: Euclidean projections onto the feasible
// boxes used by the execution strategies, and a projected-gradient method
// with penalty continuation for convex programs. The exact branch and bound
// for per-group action choices is core.ChooseActions.
//
// Only the standard library is used.
package solver

// ProjectBox clamps every coordinate of x into [lo[i], hi[i]] in place.
func ProjectBox(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		} else if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

// ProjectPair returns the Euclidean projection of (r, e) onto the set
// {(R, E) : 0 ≤ E ≤ R ≤ 1}, the per-group feasible region for execution
// strategies (a tuple can only be evaluated if it is retrieved).
//
// The region is the triangle with vertices (0,0), (1,0), (1,1). The
// projection first resolves the E ≤ R half-plane (projecting onto the line
// E=R when violated), then clamps to the unit box; because the triangle's
// box-clamp of a point on the diagonal stays in the triangle, the two-step
// procedure is exact.
func ProjectPair(r, e float64) (float64, float64) {
	if e > r {
		m := (r + e) / 2
		r, e = m, m
	}
	if r < 0 {
		r = 0
	} else if r > 1 {
		r = 1
	}
	if e < 0 {
		e = 0
	} else if e > r {
		e = r
	}
	return r, e
}

// ProjectStrategy projects interleaved (R₁,E₁,R₂,E₂,…) coordinates onto the
// product of per-group triangles, in place. len(x) must be even.
func ProjectStrategy(x []float64) {
	for i := 0; i+1 < len(x); i += 2 {
		x[i], x[i+1] = ProjectPair(x[i], x[i+1])
	}
}
