package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Classifier holds one trained HMM per class and labels sequences by
// maximum likelihood — the stroke recognizer of the companion paper.
type Classifier struct {
	models map[string]*Model
}

// ClassifierConfig tunes per-class training.
type ClassifierConfig struct {
	// States is the number of hidden states per class model (default 4).
	States int
	// Symbols is the observation alphabet size (required).
	Symbols int
	// Train tunes Baum-Welch.
	Train TrainConfig
	// Restarts trains each class model this many times from different
	// random initializations and keeps the best (default 3).
	Restarts int
	// Seed drives the random initializations.
	Seed int64
}

func (c ClassifierConfig) withDefaults() ClassifierConfig {
	if c.States == 0 {
		c.States = 4
	}
	if c.Restarts == 0 {
		c.Restarts = 3
	}
	return c
}

// TrainClassifier fits one HMM per class on the labelled sequences.
func TrainClassifier(data map[string][][]int, cfg ClassifierConfig) (*Classifier, error) {
	cfg = cfg.withDefaults()
	if cfg.Symbols <= 0 {
		return nil, fmt.Errorf("hmm: classifier needs Symbols > 0")
	}
	if len(data) == 0 {
		return nil, ErrNoData
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Classifier{models: map[string]*Model{}}
	// Deterministic class order for reproducible training.
	classes := make([]string, 0, len(data))
	for cl := range data {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	for _, class := range classes {
		seqs := data[class]
		if len(seqs) == 0 {
			return nil, fmt.Errorf("hmm: class %q has no training sequences", class)
		}
		var best *Model
		bestLL := math.Inf(-1)
		for r := 0; r < cfg.Restarts; r++ {
			m := NewRandom(cfg.States, cfg.Symbols, rng)
			ll, _, err := m.BaumWelch(seqs, cfg.Train)
			if err != nil {
				return nil, fmt.Errorf("hmm: training class %q: %w", class, err)
			}
			if ll > bestLL {
				bestLL, best = ll, m
			}
		}
		c.models[class] = best
	}
	return c, nil
}

// Classes returns the sorted class labels.
func (c *Classifier) Classes() []string {
	out := make([]string, 0, len(c.models))
	for cl := range c.models {
		out = append(out, cl)
	}
	sort.Strings(out)
	return out
}

// Classify labels a sequence with the maximum-likelihood class; it returns
// the class, its log-likelihood, and the per-class log-likelihoods.
func (c *Classifier) Classify(obs []int) (string, float64, map[string]float64, error) {
	if len(c.models) == 0 {
		return "", 0, nil, ErrNoData
	}
	scores := make(map[string]float64, len(c.models))
	best := ""
	bestLL := math.Inf(-1)
	for _, class := range c.Classes() {
		ll, err := c.models[class].LogLikelihood(obs)
		if err != nil {
			return "", 0, nil, err
		}
		scores[class] = ll
		if ll > bestLL {
			bestLL, best = ll, class
		}
	}
	return best, bestLL, scores, nil
}

// Codebook quantizes continuous feature vectors into discrete observation
// symbols via nearest-centroid lookup (k-means codebook), the front end of
// the stroke recognizer.
type Codebook struct {
	// Centers are the codeword vectors.
	Centers [][]float64
}

// FitCodebook runs Lloyd's k-means on the data. All vectors must share one
// dimensionality. The fit is deterministic for a given seed.
func FitCodebook(data [][]float64, k, iters int, seed int64) (*Codebook, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	if k <= 0 || k > len(data) {
		return nil, fmt.Errorf("hmm: invalid codebook size %d for %d vectors", k, len(data))
	}
	dim := len(data[0])
	for _, v := range data {
		if len(v) != dim {
			return nil, fmt.Errorf("hmm: inconsistent vector dimension %d vs %d", len(v), dim)
		}
	}
	if iters <= 0 {
		iters = 20
	}
	rng := rand.New(rand.NewSource(seed))
	// k-means++ seeding: spread the initial centres proportionally to the
	// squared distance from the nearest existing centre, which avoids the
	// local optima plain random seeding falls into.
	centers := make([][]float64, 0, k)
	centers = append(centers, append([]float64(nil), data[rng.Intn(len(data))]...))
	d2 := make([]float64, len(data))
	for len(centers) < k {
		var total float64
		for i, v := range data {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(v, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		var pick int
		if total == 0 {
			pick = rng.Intn(len(data))
		} else {
			r := rng.Float64() * total
			var cum float64
			for i, d := range d2 {
				cum += d
				if r < cum {
					pick = i
					break
				}
			}
		}
		centers = append(centers, append([]float64(nil), data[pick]...))
	}
	assign := make([]int, len(data))
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range data {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := sqDist(v, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Update step.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, v := range data {
			c := assign[i]
			counts[c]++
			for d := range v {
				sums[c][d] += v[d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed empty cluster with a random point.
				centers[c] = append([]float64(nil), data[rng.Intn(len(data))]...)
				continue
			}
			for d := 0; d < dim; d++ {
				centers[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	return &Codebook{Centers: centers}, nil
}

// Encode returns the index of the nearest codeword.
func (cb *Codebook) Encode(v []float64) int {
	best, bestD := 0, math.Inf(1)
	for c := range cb.Centers {
		if d := sqDist(v, cb.Centers[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// EncodeSeries quantizes a whole feature-vector sequence.
func (cb *Codebook) EncodeSeries(vs [][]float64) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = cb.Encode(v)
	}
	return out
}

// Size returns the number of codewords.
func (cb *Codebook) Size() int { return len(cb.Centers) }

func sqDist(a, b []float64) float64 {
	var s float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
