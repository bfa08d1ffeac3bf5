package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// TrainClassifier runs Baum-Welch restarts times per class, each from a
// random model of states states over StrokeAlphabet symbols, and keeps the
// most likely model; every start is drawn from one generator seeded with
// seed. E6's rows of the quality ledger were recorded at these values.
const (
	states   = 4
	restarts = 3
	seed     = 8
)

// Classifier holds one trained HMM per class and labels sequences by
// maximum likelihood — the stroke recognizer of the companion paper.
type Classifier struct {
	classes []string // sorted
	models  []*Model // models[i] is classes[i]'s
}

// TrainClassifier fits one HMM per class on the labelled sequences.
func TrainClassifier(data map[string][][]int) (*Classifier, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Classifier{}
	// Deterministic class order for reproducible training.
	for cl := range data {
		c.classes = append(c.classes, cl)
	}
	sort.Strings(c.classes)
	for _, class := range c.classes {
		seqs := data[class]
		if len(seqs) == 0 {
			return nil, fmt.Errorf("hmm: class %q has no training sequences", class)
		}
		var best *Model
		bestLL := math.Inf(-1)
		for r := 0; r < restarts; r++ {
			m := NewRandom(states, StrokeAlphabet, rng)
			ll, err := m.BaumWelch(seqs)
			if err != nil {
				return nil, fmt.Errorf("hmm: training class %q: %w", class, err)
			}
			if ll > bestLL {
				bestLL, best = ll, m
			}
		}
		c.models = append(c.models, best)
	}
	return c, nil
}

// Classify labels a sequence with the maximum-likelihood class. A tie goes
// to the class that sorts first.
func (c *Classifier) Classify(obs []int) (string, error) {
	if len(c.models) == 0 {
		return "", ErrNoData
	}
	best, bestLL := 0, math.Inf(-1)
	for i, m := range c.models {
		ll, err := m.LogLikelihood(obs)
		if err != nil {
			return "", err
		}
		if ll > bestLL {
			best, bestLL = i, ll
		}
	}
	return c.classes[best], nil
}
