package experiments

import (
	"sort"

	"repro/internal/ml"
)

// SelfTraining is a semi-supervised classifier built on logistic
// regression: fit on the labeled rows, pseudo-label the most confident
// unlabeled predictions, refit, repeat. It implements SemiSupervised for
// the Learning and Multiple baselines.
type SelfTraining struct {
	// Rounds of pseudo-labeling (default 2).
	Rounds int
	// ConfidenceHigh / ConfidenceLow are the pseudo-labeling thresholds
	// (defaults 0.9 / 0.1).
	ConfidenceHigh float64
	ConfidenceLow  float64
	// MaxPseudoFraction caps how much of the unlabeled pool may be
	// pseudo-labeled per round (default 0.5).
	MaxPseudoFraction float64
	// Model configures the underlying regressions (zero value is fine).
	Model ml.LogisticRegression
}

func (s *SelfTraining) fill() {
	if s.Rounds <= 0 {
		s.Rounds = 2
	}
	if s.ConfidenceHigh <= 0 || s.ConfidenceHigh >= 1 {
		s.ConfidenceHigh = 0.9
	}
	if s.ConfidenceLow <= 0 || s.ConfidenceLow >= 1 {
		s.ConfidenceLow = 0.1
	}
	if s.MaxPseudoFraction <= 0 || s.MaxPseudoFraction > 1 {
		s.MaxPseudoFraction = 0.5
	}
}

// FitPredict trains on the labeled rows (labeledIdx indexes features;
// labels aligns with labeledIdx) and returns P(true) for every row of
// features. Implements SemiSupervised.
func (s *SelfTraining) FitPredict(features [][]float64, labeledIdx []int, labels []bool) []float64 {
	s.fill()
	n := len(features)
	out := make([]float64, n)
	if len(labeledIdx) == 0 {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}

	trainIdx := append([]int(nil), labeledIdx...)
	trainLab := append([]bool(nil), labels...)
	isLabeled := make([]bool, n)
	for _, i := range labeledIdx {
		isLabeled[i] = true
	}

	var model ml.LogisticRegression
	for round := 0; round <= s.Rounds; round++ {
		model = s.Model // fresh copy with the configured hyperparameters
		X := make([][]float64, len(trainIdx))
		for k, i := range trainIdx {
			X[k] = features[i]
		}
		if err := model.Fit(X, trainLab); err != nil {
			for i := range out {
				out[i] = 0.5
			}
			return out
		}
		if round == s.Rounds {
			break
		}
		// Pseudo-label the most confident unlabeled rows.
		type scored struct {
			idx  int
			prob float64
		}
		var confident []scored
		for i := 0; i < n; i++ {
			if isLabeled[i] {
				continue
			}
			p := model.Prob(features[i])
			if p >= s.ConfidenceHigh || p <= s.ConfidenceLow {
				confident = append(confident, scored{i, p})
			}
		}
		if len(confident) == 0 {
			break
		}
		// Most extreme confidences first, capped per round.
		sort.Slice(confident, func(a, b int) bool {
			da := extremity(confident[a].prob)
			db := extremity(confident[b].prob)
			if da != db {
				return da > db
			}
			return confident[a].idx < confident[b].idx
		})
		budget := int(s.MaxPseudoFraction * float64(n-len(trainIdx)))
		if budget < 1 {
			budget = 1
		}
		if len(confident) > budget {
			confident = confident[:budget]
		}
		for _, c := range confident {
			isLabeled[c.idx] = true
			trainIdx = append(trainIdx, c.idx)
			trainLab = append(trainLab, c.prob >= 0.5)
		}
	}

	for i := 0; i < n; i++ {
		out[i] = model.Prob(features[i])
	}
	// Labeled rows keep their observed labels as hard probabilities so the
	// baselines never contradict ground truth they already paid for.
	for k, i := range labeledIdx {
		if labels[k] {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return out
}

func extremity(p float64) float64 {
	if p >= 0.5 {
		return p - 0.5
	}
	return 0.5 - p
}
