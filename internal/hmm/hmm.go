// Package hmm implements discrete hidden Markov models with scaled
// forward scoring and Baum-Welch training, and a classifier that keeps one
// model per class.
//
// The COBRA system's companion work ("Content-based video retrieval by
// integrating spatio-temporal and stochastic recognition of events",
// reference [2] of the demo paper) recognizes tennis strokes (serve,
// forehand, backhand, volley, smash) by feeding quantized player-shape
// features into per-class HMMs and picking the class with the highest
// likelihood. Here the classifier is trained and scored on synthetic pose
// symbol sequences (StrokeDataset), the E6 rows of the quality ledger; no
// stroke is recognised from video.
package hmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Model is a discrete HMM with N hidden states and M observation symbols.
type Model struct {
	// N is the number of hidden states, M the observation alphabet size.
	N, M int
	// Pi is the initial state distribution (length N).
	Pi []float64
	// A is the state transition matrix (N×N, rows sum to 1).
	A [][]float64
	// B is the emission matrix (N×M, rows sum to 1).
	B [][]float64
}

// New returns a model with uniform distributions.
func New(n, m int) *Model {
	h := &Model{N: n, M: m, Pi: make([]float64, n)}
	h.A = make([][]float64, n)
	h.B = make([][]float64, n)
	for i := 0; i < n; i++ {
		h.Pi[i] = 1 / float64(n)
		h.A[i] = make([]float64, n)
		h.B[i] = make([]float64, m)
		for j := 0; j < n; j++ {
			h.A[i][j] = 1 / float64(n)
		}
		for k := 0; k < m; k++ {
			h.B[i][k] = 1 / float64(m)
		}
	}
	return h
}

// NewRandom returns a model with randomly perturbed distributions; random
// initialization breaks the symmetry that traps Baum-Welch on the uniform
// start.
func NewRandom(n, m int, rng *rand.Rand) *Model {
	h := New(n, m)
	perturb := func(row []float64) {
		var sum float64
		for i := range row {
			row[i] = 0.1 + rng.Float64()
			sum += row[i]
		}
		for i := range row {
			row[i] /= sum
		}
	}
	perturb(h.Pi)
	for i := 0; i < n; i++ {
		perturb(h.A[i])
		perturb(h.B[i])
	}
	return h
}

// Errors returned by the package.
var (
	ErrEmptySequence = errors.New("hmm: empty observation sequence")
	ErrBadSymbol     = errors.New("hmm: observation symbol out of range")
	ErrNoData        = errors.New("hmm: no training data")
)

func (h *Model) checkObs(obs []int) error {
	if len(obs) == 0 {
		return ErrEmptySequence
	}
	for _, o := range obs {
		if o < 0 || o >= h.M {
			return fmt.Errorf("%w: %d (M=%d)", ErrBadSymbol, o, h.M)
		}
	}
	return nil
}

// forwardScaled runs the scaled forward pass, returning per-step alpha
// matrices and scale factors. logProb = -sum(log c_t).
func (h *Model) forwardScaled(obs []int) (alpha [][]float64, scales []float64) {
	T := len(obs)
	alpha = make([][]float64, T)
	scales = make([]float64, T)
	alpha[0] = make([]float64, h.N)
	var c float64
	for i := 0; i < h.N; i++ {
		alpha[0][i] = h.Pi[i] * h.B[i][obs[0]]
		c += alpha[0][i]
	}
	if c == 0 {
		c = math.SmallestNonzeroFloat64
	}
	scales[0] = c
	for i := 0; i < h.N; i++ {
		alpha[0][i] /= c
	}
	for t := 1; t < T; t++ {
		alpha[t] = make([]float64, h.N)
		c = 0
		for j := 0; j < h.N; j++ {
			var s float64
			for i := 0; i < h.N; i++ {
				s += alpha[t-1][i] * h.A[i][j]
			}
			alpha[t][j] = s * h.B[j][obs[t]]
			c += alpha[t][j]
		}
		if c == 0 {
			c = math.SmallestNonzeroFloat64
		}
		scales[t] = c
		for j := 0; j < h.N; j++ {
			alpha[t][j] /= c
		}
	}
	return alpha, scales
}

// LogLikelihood returns log P(obs | model) using the scaled forward pass.
func (h *Model) LogLikelihood(obs []int) (float64, error) {
	if err := h.checkObs(obs); err != nil {
		return 0, err
	}
	_, scales := h.forwardScaled(obs)
	var lp float64
	for _, c := range scales {
		lp += math.Log(c)
	}
	return lp, nil
}

// Baum-Welch stops after maxIters EM iterations, or once the total
// log-likelihood improves by less than tol. smoothing is added to every
// accumulator to avoid zero probabilities.
const (
	maxIters  = 30
	tol       = 1e-4
	smoothing = 1e-6
)

// BaumWelch trains the model in place on multiple observation sequences,
// returning the final total log-likelihood.
func (h *Model) BaumWelch(seqs [][]int) (float64, error) {
	if len(seqs) == 0 {
		return 0, ErrNoData
	}
	for _, s := range seqs {
		if err := h.checkObs(s); err != nil {
			return 0, err
		}
	}
	prevLL := math.Inf(-1)
	for iter := 0; iter < maxIters; iter++ {
		piAcc := make([]float64, h.N)
		aNum := make([][]float64, h.N)
		aDen := make([]float64, h.N)
		bNum := make([][]float64, h.N)
		bDen := make([]float64, h.N)
		for i := 0; i < h.N; i++ {
			aNum[i] = make([]float64, h.N)
			bNum[i] = make([]float64, h.M)
		}
		var totalLL float64
		for _, obs := range seqs {
			T := len(obs)
			alpha, scales := h.forwardScaled(obs)
			for _, c := range scales {
				totalLL += math.Log(c)
			}
			// Scaled backward pass.
			beta := make([][]float64, T)
			beta[T-1] = make([]float64, h.N)
			for i := 0; i < h.N; i++ {
				beta[T-1][i] = 1 / scales[T-1]
			}
			for t := T - 2; t >= 0; t-- {
				beta[t] = make([]float64, h.N)
				for i := 0; i < h.N; i++ {
					var s float64
					for j := 0; j < h.N; j++ {
						s += h.A[i][j] * h.B[j][obs[t+1]] * beta[t+1][j]
					}
					beta[t][i] = s / scales[t]
				}
			}
			// Accumulate gamma and xi.
			for t := 0; t < T; t++ {
				var norm float64
				gamma := make([]float64, h.N)
				for i := 0; i < h.N; i++ {
					gamma[i] = alpha[t][i] * beta[t][i]
					norm += gamma[i]
				}
				if norm == 0 {
					continue
				}
				for i := 0; i < h.N; i++ {
					g := gamma[i] / norm
					if t == 0 {
						piAcc[i] += g
					}
					bNum[i][obs[t]] += g
					bDen[i] += g
					if t < T-1 {
						aDen[i] += g
					}
				}
				if t < T-1 {
					var xiNorm float64
					xi := make([][]float64, h.N)
					for i := 0; i < h.N; i++ {
						xi[i] = make([]float64, h.N)
						for j := 0; j < h.N; j++ {
							xi[i][j] = alpha[t][i] * h.A[i][j] * h.B[j][obs[t+1]] * beta[t+1][j]
							xiNorm += xi[i][j]
						}
					}
					if xiNorm > 0 {
						for i := 0; i < h.N; i++ {
							for j := 0; j < h.N; j++ {
								aNum[i][j] += xi[i][j] / xiNorm
							}
						}
					}
				}
			}
		}
		// Re-estimate with smoothing.
		var piSum float64
		for i := 0; i < h.N; i++ {
			piAcc[i] += smoothing
			piSum += piAcc[i]
		}
		for i := 0; i < h.N; i++ {
			h.Pi[i] = piAcc[i] / piSum
			var rowSum float64
			for j := 0; j < h.N; j++ {
				aNum[i][j] += smoothing
				rowSum += aNum[i][j]
			}
			for j := 0; j < h.N; j++ {
				h.A[i][j] = aNum[i][j] / rowSum
			}
			var bSum float64
			for k := 0; k < h.M; k++ {
				bNum[i][k] += smoothing
				bSum += bNum[i][k]
			}
			for k := 0; k < h.M; k++ {
				h.B[i][k] = bNum[i][k] / bSum
			}
		}
		if totalLL-prevLL < tol && iter > 0 {
			prevLL = totalLL
			break
		}
		prevLL = totalLL
	}
	return prevLL, nil
}
