package hmm

import (
	"math"
	"math/rand"
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
	ll, iters, err := m.BaumWelch(seqs, TrainConfig{MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Fatal("no iterations run")
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
	if _, _, err := m.BaumWelch(nil, TrainConfig{}); err != ErrNoData {
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
		if _, _, err := m.BaumWelch(seqs, TrainConfig{MaxIters: 10}); err != nil {
			return false
		}
		return stochastic(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStrokeClassifierAccuracy(t *testing.T) {
	train := StrokeDataset(30, 0.05, 11)
	test := StrokeDataset(20, 0.05, 99)
	cls, err := TrainClassifier(train, ClassifierConfig{
		States: 4, Symbols: StrokeAlphabet, Seed: 5,
		Train: TrainConfig{MaxIters: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for class, seqs := range test {
		for _, q := range seqs {
			got, _, _, err := cls.Classify(q)
			if err != nil {
				t.Fatal(err)
			}
			if got == class {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Fatalf("stroke accuracy %.2f, want >= 0.9", acc)
	}
}

func TestClassifierScoresComplete(t *testing.T) {
	train := StrokeDataset(10, 0.05, 21)
	cls, err := TrainClassifier(train, ClassifierConfig{Symbols: StrokeAlphabet, Seed: 1, Train: TrainConfig{MaxIters: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Classes()) != len(StrokeClasses) {
		t.Fatalf("classes = %v", cls.Classes())
	}
	_, _, scores, err := cls.Classify(GenerateStroke("serve", rand.New(rand.NewSource(2)), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(StrokeClasses) {
		t.Fatalf("scores = %v", scores)
	}
}

func TestTrainClassifierErrors(t *testing.T) {
	if _, err := TrainClassifier(nil, ClassifierConfig{Symbols: 4}); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := TrainClassifier(map[string][][]int{"a": {{0}}}, ClassifierConfig{}); err == nil {
		t.Fatal("missing Symbols accepted")
	}
	if _, err := TrainClassifier(map[string][][]int{"a": {}}, ClassifierConfig{Symbols: 4}); err == nil {
		t.Fatal("class without sequences accepted")
	}
}

func TestCodebookQuantization(t *testing.T) {
	// Three well-separated clusters.
	var data [][]float64
	rng := rand.New(rand.NewSource(4))
	centers := [][]float64{{0, 0}, {10, 10}, {-8, 6}}
	for i := 0; i < 300; i++ {
		c := centers[i%3]
		data = append(data, []float64{c[0] + rng.NormFloat64()*0.5, c[1] + rng.NormFloat64()*0.5})
	}
	cb, err := FitCodebook(data, 3, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Size() != 3 {
		t.Fatalf("size = %d", cb.Size())
	}
	// Points near each true centre must share a codeword, distinct from
	// the others.
	codes := map[int]int{}
	for i, c := range centers {
		codes[i] = cb.Encode(c)
	}
	if codes[0] == codes[1] || codes[1] == codes[2] || codes[0] == codes[2] {
		t.Fatalf("clusters conflated: %v", codes)
	}
	series := cb.EncodeSeries(data[:6])
	if len(series) != 6 {
		t.Fatalf("series len = %d", len(series))
	}
}

func TestCodebookErrors(t *testing.T) {
	if _, err := FitCodebook(nil, 3, 10, 1); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := FitCodebook([][]float64{{1}}, 5, 10, 1); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := FitCodebook([][]float64{{1, 2}, {1}}, 1, 10, 1); err == nil {
		t.Fatal("ragged data accepted")
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
