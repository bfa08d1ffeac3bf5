package ir

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/eval"
)

// tokens collects the tokens scanTokens emits for text.
func tokens(text string) []string {
	var out []string
	scanTokens(text, nil, func(tok []byte) { out = append(out, string(tok)) })
	return out
}

func TestTokenize(t *testing.T) {
	got := tokens("Hello, World! 42 foo-bar   baz")
	want := []string{"hello", "world", "42", "foo", "bar", "baz"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v", got)
	}
	if len(tokens("...!!!")) != 0 {
		t.Fatal("punctuation-only text produced tokens")
	}
}

func TestStopwords(t *testing.T) {
	if got := Analyze("the and"); len(got) != 0 {
		t.Fatalf("common stopwords not recognized: %v", got)
	}
	if got := Analyze("tennis"); len(got) != 1 {
		t.Fatalf("content word flagged as stopword: %v", got)
	}
}

func TestAnalyze(t *testing.T) {
	got := Analyze("The players were playing tennis at the tournament")
	// stopwords removed, remaining stemmed
	want := []string{"player", "plai", "tenni", "tournament"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %v, want %v", got, want)
	}
}

func TestPorterKnownPairs(t *testing.T) {
	// Reference pairs from Porter's published vocabulary.
	pairs := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
	}
	for in, want := range pairs {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "at", "be"} {
		if Stem(w) != w {
			t.Errorf("short word %q changed to %q", w, Stem(w))
		}
	}
}

func buildSmallIndex(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex()
	docs := []string{
		"tennis match at the australian open tournament",
		"the player won the final match with a strong serve",
		"interview with the tennis champion after the tournament final",
		"weather report for melbourne rain expected",
		"tennis tennis tennis practice drills for the serve",
	}
	for i, d := range docs {
		if _, err := ix.Add(fmt.Sprintf("doc%d", i), d); err != nil {
			t.Fatal(err)
		}
	}
	ix.Freeze()
	return ix
}

func TestSearchRanking(t *testing.T) {
	ix := buildSmallIndex(t)
	hits, stats, err := ix.Search("tennis serve", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	// doc4 mentions tennis 3 times and serve once: must rank first.
	if hits[0].Name != "doc4" {
		t.Fatalf("top hit = %v", hits[0])
	}
	if stats.PostingsScored == 0 || stats.DocsTouched == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Scores strictly ordered.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted by score")
		}
	}
}

func TestSearchRequiresFreeze(t *testing.T) {
	ix := NewIndex()
	_, _ = ix.Add("d", "text")
	if _, _, err := ix.Search("text", 5); err != ErrNotFrozen {
		t.Fatalf("err = %v", err)
	}
	ix.Freeze()
	if _, err := ix.Add("d2", "more"); err != ErrFrozen {
		t.Fatalf("add after freeze = %v", err)
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	ix := buildSmallIndex(t)
	if _, _, err := ix.Search("the of and", 5); err != ErrEmptyQry {
		t.Fatalf("stopword-only query err = %v", err)
	}
}

func TestSearchUnknownTerm(t *testing.T) {
	ix := buildSmallIndex(t)
	hits, _, err := ix.Search("zeppelin", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("unknown term hits = %v", hits)
	}
}

// synthCorpus builds a Zipf-vocabulary corpus for top-N testing.
func synthCorpus(t testing.TB, nDocs, vocab int, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(vocab-1))
	ix := NewIndex()
	for d := 0; d < nDocs; d++ {
		n := 30 + rng.Intn(80)
		var sb strings.Builder
		for w := 0; w < n; w++ {
			fmt.Fprintf(&sb, "w%d ", zipf.Uint64())
		}
		if _, err := ix.Add(fmt.Sprintf("d%05d", d), sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	ix.Freeze()
	return ix
}

func TestTopNSafeEqualsExhaustive(t *testing.T) {
	ix := synthCorpus(t, 2000, 500, 9)
	queries := []string{"w1 w2", "w0 w10 w50", "w3", "w7 w13 w29 w111"}
	for _, q := range queries {
		for _, k := range []int{5, 10, 20} {
			full, _, err := ix.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			opt, stats, err := ix.SearchTopN(q, k, TopNOptions{Fragments: 16})
			if err != nil {
				t.Fatal(err)
			}
			if !sameDocs(full, opt) {
				t.Fatalf("q=%q k=%d: safe top-N differs from exhaustive\nfull: %v\nopt: %v", q, k, full, opt)
			}
			_ = stats
		}
	}
}

func TestTopNScoresFewerPostings(t *testing.T) {
	ix := synthCorpus(t, 5000, 300, 10)
	q := "w0 w1" // most common terms: long lists, early termination pays
	full, fullStats, err := ix.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	opt, optStats, err := ix.SearchTopN(q, 10, TopNOptions{Fragments: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !sameDocs(full, opt) {
		t.Fatal("safe top-N wrong")
	}
	if !optStats.Terminated {
		t.Log("top-N did not terminate early (acceptable but unexpected on long lists)")
	}
	if optStats.PostingsScored > fullStats.PostingsScored {
		t.Fatalf("top-N scored more postings (%d) than full scan (%d)",
			optStats.PostingsScored, fullStats.PostingsScored)
	}
}

func TestTopNUnsafeQualityDegrades(t *testing.T) {
	ix := synthCorpus(t, 3000, 300, 11)
	q := "w0 w1 w2"
	// Tiny budget: quality may drop but stays sane; full budget: quality 1.
	small, sStats, err := ix.SearchTopN(q, 10, TopNOptions{Fragments: 64, MaxFragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sStats.Terminated {
		t.Fatal("budget termination did not fire")
	}
	qual, err := ScoreQuality(ix, q, 10, small)
	if err != nil {
		t.Fatal(err)
	}
	if qual <= 0 || qual > 1 {
		t.Fatalf("tiny-budget quality %.3f out of range", qual)
	}
	large, lStats, _ := ix.SearchTopN(q, 10, TopNOptions{Fragments: 64, MaxFragments: 64})
	if lStats.Terminated {
		t.Fatal("full budget should exhaust the lists")
	}
	lq, _ := ScoreQuality(ix, q, 10, large)
	if lq < 1-1e-9 {
		t.Fatalf("full-budget quality = %v, want 1", lq)
	}
	if lq < qual {
		t.Fatal("more budget must not reduce quality")
	}
}

func TestScoreQualityBounds(t *testing.T) {
	ix := synthCorpus(t, 500, 100, 13)
	full, _, _ := ix.Search("w1 w2", 10)
	q, err := ScoreQuality(ix, "w1 w2", 10, full)
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Fatalf("self quality = %v", q)
	}
	q, _ = ScoreQuality(ix, "w1 w2", 10, nil)
	if q != 0 {
		t.Fatalf("empty result quality = %v", q)
	}
	// Quality of an unknown-term query is vacuously 1.
	q, err = ScoreQuality(ix, "zzzunknown", 10, nil)
	if err != nil || q != 1 {
		t.Fatalf("unknown-term quality = %v, %v", q, err)
	}
}

// Property: safe top-N always equals exhaustive search.
func TestTopNSafetyProperty(t *testing.T) {
	ix := synthCorpus(t, 800, 120, 12)
	f := func(a, b uint8, kk uint8) bool {
		q := fmt.Sprintf("w%d w%d", a%60, b%60)
		k := int(kk%20) + 1
		full, _, err1 := ix.Search(q, k)
		opt, _, err2 := ix.SearchTopN(q, k, TopNOptions{Fragments: 8})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil // both fail the same way
		}
		return sameDocs(full, opt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sameDocs reports whether got holds exactly want's documents: scored
// over all of got against want, no false positive and no miss.
func sameDocs(want, got []Hit) bool {
	rel := map[DocID]bool{}
	for _, h := range want {
		rel[h.Doc] = true
	}
	docs := make([]DocID, len(got))
	for i, h := range got {
		docs[i] = h.Doc
	}
	pr := eval.AtK(docs, rel, len(docs))
	return pr.FP == 0 && pr.FN == 0
}

func TestIndexCounters(t *testing.T) {
	ix := buildSmallIndex(t)
	if ix.Docs() != 5 {
		t.Fatalf("Docs = %d", ix.Docs())
	}
	if ix.dict.Len() == 0 {
		t.Fatal("no terms")
	}
}
