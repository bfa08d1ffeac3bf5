// Package eval is the one scorer of the experiments: boundary matching
// with tolerance, interval matching by intersection-over-union,
// precision/recall/F1, labelled confusion matrices, and the ranked-list
// metrics P@k, recall@k and nDCG@k. The quality ledger (quality_test.go,
// testdata/quality.tsv) scores through these.
package eval

import (
	"math"
	"sort"
)

// PR holds precision/recall counts.
type PR struct {
	TP, FP, FN int
}

// Precision returns TP/(TP+FP), 1 if nothing was predicted.
func (p PR) Precision() float64 {
	if p.TP+p.FP == 0 {
		return 1
	}
	return float64(p.TP) / float64(p.TP+p.FP)
}

// Recall returns TP/(TP+FN), 1 if nothing was expected.
func (p PR) Recall() float64 {
	if p.TP+p.FN == 0 {
		return 1
	}
	return float64(p.TP) / float64(p.TP+p.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (p PR) F1() float64 {
	pr, rc := p.Precision(), p.Recall()
	if pr+rc == 0 {
		return 0
	}
	return 2 * pr * rc / (pr + rc)
}

// Add accumulates another count set.
func (p *PR) Add(o PR) {
	p.TP += o.TP
	p.FP += o.FP
	p.FN += o.FN
}

// AtK scores the first k items of a ranked list against the relevant set,
// which maps each relevant item to true: TP counts the relevant items among
// them, FP the others, FN the relevant items not among them. Precision is
// then P@k and Recall is recall@k. A list shorter than k is scored as it
// stands, so its precision is over the items returned, not over k.
func AtK[T comparable](ranked []T, relevant map[T]bool, k int) PR {
	ranked = ranked[:min(k, len(ranked))]
	var pr PR
	for _, x := range ranked {
		if relevant[x] {
			pr.TP++
		}
	}
	pr.FP, pr.FN = len(ranked)-pr.TP, len(relevant)-pr.TP
	return pr
}

// NDCG returns the binary-gain nDCG@k of a ranked list: the discounted
// gain sum over i < k of [ranked[i] relevant] / log2(i+2), divided by that
// of the ideal list, which puts min(k, |relevant|) relevant items first.
// It is 1 when nothing is relevant. The list must not repeat an item.
func NDCG[T comparable](ranked []T, relevant map[T]bool, k int) float64 {
	var dcg, ideal float64
	for i := 0; i < k; i++ {
		if i < len(ranked) && relevant[ranked[i]] {
			dcg += 1 / math.Log2(float64(i+2))
		}
		if i < len(relevant) {
			ideal += 1 / math.Log2(float64(i+2))
		}
	}
	if ideal == 0 {
		return 1
	}
	return dcg / ideal
}

// MatchBoundaries greedily matches detected frame positions against true
// ones within ±tol frames; each truth matches at most one detection.
func MatchBoundaries(detected, truth []int, tol int) PR {
	d := append([]int(nil), detected...)
	tr := append([]int(nil), truth...)
	sort.Ints(d)
	sort.Ints(tr)
	usedT := make([]bool, len(tr))
	var pr PR
	for _, x := range d {
		for i, y := range tr {
			if !usedT[i] && max(x-y, y-x) <= tol {
				usedT[i] = true
				pr.TP++
				break
			}
		}
	}
	pr.FP, pr.FN = len(d)-pr.TP, len(tr)-pr.TP
	return pr
}

// Interval is a labelled half-open interval for event matching.
type Interval struct {
	Start, End int
	Label      string
}

// iou computes interval intersection-over-union.
func iou(a, b Interval) float64 {
	lo := max(a.Start, b.Start)
	hi := min(a.End, b.End)
	inter := hi - lo
	if inter <= 0 {
		return 0
	}
	union := (a.End - a.Start) + (b.End - b.Start) - inter
	return float64(inter) / float64(union)
}

// MatchIntervals greedily matches detections against truth: a pair matches
// when labels agree and IoU >= minIoU; each truth matches at most once.
// Matching is order-stable: detections are taken best-IoU-first.
func MatchIntervals(detected, truth []Interval, minIoU float64) PR {
	type cand struct {
		d, t int
		iou  float64
	}
	var cands []cand
	for di, d := range detected {
		for ti, t := range truth {
			if d.Label != t.Label {
				continue
			}
			if v := iou(d, t); v >= minIoU {
				cands = append(cands, cand{di, ti, v})
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].iou > cands[b].iou })
	usedD := make([]bool, len(detected))
	usedT := make([]bool, len(truth))
	var pr PR
	for _, c := range cands {
		if usedD[c.d] || usedT[c.t] {
			continue
		}
		usedD[c.d], usedT[c.t] = true, true
		pr.TP++
	}
	pr.FP, pr.FN = len(detected)-pr.TP, len(truth)-pr.TP
	return pr
}

// Confusion is a labelled confusion matrix.
type Confusion struct {
	Labels []string
	index  map[string]int
	// Counts[i][j] counts truth label i classified as label j.
	Counts [][]int
}

// NewConfusion creates a matrix over the given labels.
func NewConfusion(labels ...string) *Confusion {
	c := &Confusion{Labels: append([]string(nil), labels...), index: map[string]int{}}
	for i, l := range labels {
		c.index[l] = i
	}
	c.Counts = make([][]int, len(labels))
	for i := range c.Counts {
		c.Counts[i] = make([]int, len(labels))
	}
	return c
}

// Observe records one (truth, predicted) pair. A pair with a label the
// matrix does not know is not recorded and reports false; a scorer must
// treat that as a failure, not skip it.
func (c *Confusion) Observe(truth, predicted string) bool {
	ti, ok1 := c.index[truth]
	pi, ok2 := c.index[predicted]
	if !ok1 || !ok2 {
		return false
	}
	c.Counts[ti][pi]++
	return true
}

// Accuracy returns the trace fraction, 0 for an empty matrix.
func (c *Confusion) Accuracy() float64 {
	diag := 0
	for i := range c.Counts {
		diag += c.Counts[i][i]
	}
	if total := c.Total(); total > 0 {
		return float64(diag) / float64(total)
	}
	return 0
}

// Total returns the number of observations.
func (c *Confusion) Total() int {
	t := 0
	for i := range c.Counts {
		for _, n := range c.Counts[i] {
			t += n
		}
	}
	return t
}

// PerClass returns per-label precision/recall counts (one-vs-rest).
func (c *Confusion) PerClass() map[string]PR {
	out := map[string]PR{}
	for i, l := range c.Labels {
		var pr PR
		for j := range c.Labels {
			n := c.Counts[i][j]
			m := c.Counts[j][i]
			if i == j {
				pr.TP += n
				continue
			}
			pr.FN += n // truth i predicted j
			pr.FP += m // truth j predicted i
		}
		out[l] = pr
	}
	return out
}
