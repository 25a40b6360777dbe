// Package ml provides the small machine-learning substrate behind the
// logistic-regression virtual column of Section 6.3.2 (GROUP ON virtual):
// L2-regularized logistic regression, feature encoding from tables,
// equal-frequency bucketing, and VirtualGroups, which sequences the three.
//
// Everything is deterministic given the inputs; no randomness is used.
package ml

import (
	"errors"
	"math"
)

// LogisticRegression is an L2-regularized binary logistic regression model
// trained by full-batch gradient descent with a decaying step size.
type LogisticRegression struct {
	// L2 is the regularization strength (default 1e-3 when zero).
	L2 float64
	// LearningRate is the initial step size (default 0.5 when zero).
	LearningRate float64
	// Epochs is the number of gradient passes (default 200 when zero).
	Epochs int

	weights []float64 // per-feature weights
	bias    float64
	mean    []float64 // feature standardization
	scale   []float64
	fitted  bool
}

func (m *LogisticRegression) fill() {
	if m.L2 <= 0 {
		m.L2 = 1e-3
	}
	if m.LearningRate <= 0 {
		m.LearningRate = 0.5
	}
	if m.Epochs <= 0 {
		m.Epochs = 200
	}
}

// Fit trains the model on the feature matrix X and labels y. Features are
// standardized internally, so callers need not scale them.
func (m *LogisticRegression) Fit(X [][]float64, y []bool) error {
	if len(X) == 0 {
		return errors.New("ml: empty training set")
	}
	if len(X) != len(y) {
		return errors.New("ml: X/y length mismatch")
	}
	m.fill()
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return errors.New("ml: ragged feature matrix")
		}
	}

	// Standardize features for stable optimization.
	m.mean = make([]float64, d)
	m.scale = make([]float64, d)
	n := float64(len(X))
	for j := 0; j < d; j++ {
		sum := 0.0
		for _, row := range X {
			sum += row[j]
		}
		m.mean[j] = sum / n
		ss := 0.0
		for _, row := range X {
			dv := row[j] - m.mean[j]
			ss += dv * dv
		}
		sd := math.Sqrt(ss / n)
		if sd < 1e-12 {
			sd = 1
		}
		m.scale[j] = sd
	}

	m.weights = make([]float64, d)
	m.bias = 0
	grad := make([]float64, d)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gBias := 0.0
		for i, row := range X {
			p := m.probStandardized(row)
			t := 0.0
			if y[i] {
				t = 1
			}
			diff := p - t
			for j := 0; j < d; j++ {
				grad[j] += diff * (row[j] - m.mean[j]) / m.scale[j]
			}
			gBias += diff
		}
		lr := m.LearningRate / (1 + 0.01*float64(epoch))
		for j := 0; j < d; j++ {
			m.weights[j] -= lr * (grad[j]/n + m.L2*m.weights[j])
		}
		m.bias -= lr * gBias / n
	}
	m.fitted = true
	return nil
}

func (m *LogisticRegression) probStandardized(row []float64) float64 {
	z := m.bias
	for j, w := range m.weights {
		z += w * (row[j] - m.mean[j]) / m.scale[j]
	}
	return sigmoid(z)
}

// Prob returns P(y = true | x). Fit must have been called.
func (m *LogisticRegression) Prob(x []float64) float64 {
	if !m.fitted {
		return 0.5
	}
	return m.probStandardized(x)
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}
