package hmm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// stochastic reports whether every distribution of m is non-negative and
// sums to 1.
func stochastic(m *Model) bool {
	rows := append([][]float64{m.Pi}, m.A...)
	for _, row := range append(rows, m.B...) {
		var sum float64
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return false
		}
	}
	return true
}

func TestNewModelsValid(t *testing.T) {
	if !stochastic(New(3, 5)) {
		t.Fatal("uniform model not stochastic")
	}
	rng := rand.New(rand.NewSource(1))
	if !stochastic(NewRandom(4, 6, rng)) {
		t.Fatal("random model not stochastic")
	}
}

func TestLogLikelihoodKnownModel(t *testing.T) {
	// Deterministic model: always state 0, always emits symbol 0.
	m := New(1, 2)
	m.B[0] = []float64{1, 0}
	ll, err := m.LogLikelihood([]int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll) > 1e-9 {
		t.Fatalf("certain sequence ll = %v, want 0", ll)
	}
	// Impossible observation: probability ~0.
	ll, _ = m.LogLikelihood([]int{1})
	if ll > -100 {
		t.Fatalf("impossible sequence ll = %v, want very negative", ll)
	}
}

func TestLogLikelihoodTwoState(t *testing.T) {
	// Hand-computable: P(obs=[0]) = pi0*b0(0) + pi1*b1(0) = .5*.8+.5*.3 = .55
	m := New(2, 2)
	m.B[0] = []float64{0.8, 0.2}
	m.B[1] = []float64{0.3, 0.7}
	ll, err := m.LogLikelihood([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-math.Log(0.55)) > 1e-9 {
		t.Fatalf("ll = %v, want log(0.55)", ll)
	}
}

func TestObservationValidation(t *testing.T) {
	m := New(2, 3)
	if _, err := m.LogLikelihood(nil); err == nil {
		t.Fatal("empty sequence accepted")
	}
	if _, err := m.LogLikelihood([]int{0, 3}); err == nil {
		t.Fatal("out-of-range symbol accepted")
	}
	if _, err := m.LogLikelihood([]int{-1}); err == nil {
		t.Fatal("negative symbol accepted")
	}
}

func TestBaumWelchImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Two regimes: symbols 0-1 for a while, then mostly 2-3.
	var seqs [][]int
	for i := 0; i < 30; i++ {
		seq := make([]int, 25)
		for j := range seq {
			seq[j] = rng.Intn(2)
			if j >= 8+rng.Intn(8) {
				seq[j] += 2
			}
		}
		seqs = append(seqs, seq)
	}
	m := NewRandom(2, 4, rng)
	before := totalLL(t, m, seqs)
	ll, err := m.BaumWelch(seqs)
	if err != nil {
		t.Fatal(err)
	}
	after := totalLL(t, m, seqs)
	if after <= before {
		t.Fatalf("training did not improve likelihood: %v -> %v", before, after)
	}
	// The reported LL is evaluated before the final re-estimation step, so
	// the returned model can only be at least as good.
	if after < ll-1e-6 {
		t.Fatalf("recomputed ll %v below reported %v", after, ll)
	}
	if !stochastic(m) {
		t.Fatal("trained model not stochastic")
	}
}

func totalLL(t *testing.T, m *Model, seqs [][]int) float64 {
	t.Helper()
	var s float64
	for _, q := range seqs {
		ll, err := m.LogLikelihood(q)
		if err != nil {
			t.Fatal(err)
		}
		s += ll
	}
	return s
}

func TestBaumWelchNoData(t *testing.T) {
	m := New(2, 2)
	if _, err := m.BaumWelch(nil); err != ErrNoData {
		t.Fatalf("err = %v", err)
	}
}

// Property: trained models always satisfy stochastic constraints.
func TestBaumWelchStochasticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seqs := make([][]int, 5)
		for i := range seqs {
			seqs[i] = make([]int, 15)
			for j := range seqs[i] {
				seqs[i][j] = rng.Intn(5)
			}
		}
		m := NewRandom(3, 5, rng)
		if _, err := m.BaumWelch(seqs); err != nil {
			return false
		}
		return stochastic(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainClassifierErrors(t *testing.T) {
	if _, err := TrainClassifier(nil); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := TrainClassifier(map[string][][]int{"a": {}}); err == nil {
		t.Fatal("class without sequences accepted")
	}
}

func TestStrokeDatasetDeterministic(t *testing.T) {
	a := StrokeDataset(5, 0.1, 42)
	b := StrokeDataset(5, 0.1, 42)
	for class := range a {
		for i := range a[class] {
			if len(a[class][i]) != len(b[class][i]) {
				t.Fatal("dataset not deterministic")
			}
			for j := range a[class][i] {
				if a[class][i][j] != b[class][i][j] {
					t.Fatal("dataset not deterministic")
				}
			}
		}
	}
	if GenerateStroke("moonwalk", rand.New(rand.NewSource(1)), 0) != nil {
		t.Fatal("unknown stroke generated")
	}
}

// TestTrainClassifierDeterministic trains twice on the same data and wants
// bit-identical models: training draws its random starts in sorted class
// order, never in map order.
func TestTrainClassifierDeterministic(t *testing.T) {
	data := StrokeDataset(10, 0.1, 6000)
	a, err := TrainClassifier(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainClassifier(data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(a.classes) || !slices.Equal(a.classes, b.classes) {
		t.Fatalf("classes %v and %v", a.classes, b.classes)
	}
	same := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return len(x) == len(y)
	}
	for i, ma := range a.models {
		mb := b.models[i]
		ok := same(ma.Pi, mb.Pi)
		for j := range ma.A {
			ok = ok && same(ma.A[j], mb.A[j]) && same(ma.B[j], mb.B[j])
		}
		if !ok {
			t.Fatalf("class %q trained to two different models", a.classes[i])
		}
	}
}

// TestClassifyTieGoesToFirstClass gives classes equal models and wants the
// class that sorts first among the tied ones.
func TestClassifyTieGoesToFirstClass(t *testing.T) {
	worse := New(states, StrokeAlphabet) // state 0 emits symbol 0 less often
	worse.B[0][0], worse.B[0][1] = 0.01, 0.19
	c := &Classifier{
		classes: []string{"backhand", "forehand", "serve"},
		models:  []*Model{worse, New(states, StrokeAlphabet), New(states, StrokeAlphabet)},
	}
	got, err := c.Classify([]int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != "forehand" {
		t.Fatalf("tie between forehand and serve went to %q", got)
	}
}
